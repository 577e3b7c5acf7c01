"""Additional DES-kernel edge cases: zero-delay storms and scheduling
guards."""

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestZeroDelayStorm:
    def test_chained_zero_delays_preserve_order(self, env):
        seen = []

        def chain(depth):
            if depth:
                seen.append(depth)
                env.call_at(env.now, lambda: chain(depth - 1))

        env.call_at(0, lambda: chain(50))
        env.run()
        assert seen == list(range(50, 0, -1))
        assert env.now == 0

    def test_interleaved_zero_and_positive(self, env):
        order = []

        def first():
            order.append("zero")
            env.call_at(env.now + 1, lambda: order.append("one"))
            env.call_at(env.now, lambda: order.append("zero-chained"))

        env.call_at(0, first)
        env.call_at(0, lambda: order.append("zero-queued"))
        env.run()
        # Equal-time calls fire in scheduling order: the call queued before
        # `first` ran precedes the one `first` chained at the same tick.
        assert order == ["zero", "zero-queued", "zero-chained", "one"]


class TestEnvironmentMisc:
    def test_initial_time_offsets_everything(self):
        env = Environment(initial_time=1000)
        fired = []
        env.call_at(1005, lambda: fired.append(env.now))
        env.run()
        assert fired == [1005]

    def test_schedule_on_fired_event_rejected(self, env):
        ev = env.call_at(1, lambda: None)
        env.run()
        with pytest.raises(SimulationError):
            env.schedule(ev)

    def test_negative_schedule_delay_rejected(self, env):
        ev = env.event()
        with pytest.raises(ValueError):
            env.schedule(ev, delay=-1)
