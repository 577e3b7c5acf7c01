"""Unit tests for the DES kernel's event types (repro.sim.core)."""

import pytest

from repro.sim import Environment, EventStatus, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert ev.status is EventStatus.PENDING
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed(42)
        env.run()
        assert ev.processed
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_crashes_run_if_not_defused(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_crash(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        env.run()
        assert ev.processed and not ev.ok

    def test_callbacks_fire_in_order(self, env):
        order = []
        ev = env.event()
        ev.callbacks.append(lambda e: order.append(1))
        ev.callbacks.append(lambda e: order.append(2))
        ev.succeed()
        env.run()
        assert order == [1, 2]


class TestTimeout:
    """An event scheduled ``delay`` ticks ahead fires then (a timeout)."""

    @staticmethod
    def timeout(env, delay, fired=None, label=None):
        ev = env.event()
        if fired is not None:
            ev.callbacks.append(lambda e: fired.append(label))
        env.schedule(ev, delay)
        return ev

    def test_fires_after_delay(self, env):
        ev = self.timeout(env, 10)
        env.run()
        assert env.now == 10
        assert ev.processed and ev.ok

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            self.timeout(env, -1)

    def test_zero_delay_fires_now(self, env):
        ev = self.timeout(env, 0)
        env.run()
        assert env.now == 0
        assert ev.processed

    def test_timeouts_fire_in_time_order(self, env):
        fired = []
        for d in (5, 1, 3):
            self.timeout(env, d, fired, d)
        env.run()
        assert fired == [1, 3, 5]

    def test_equal_time_fires_in_creation_order(self, env):
        fired = []
        for tag in "abc":
            self.timeout(env, 7, fired, tag)
        env.run()
        assert fired == ["a", "b", "c"]
