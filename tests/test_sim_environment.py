"""Unit tests for the Environment event loop (repro.sim.environment)."""

import random

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


def noop():
    pass


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0
        assert Environment(initial_time=100).now == 100

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.call_at(7, noop)
        env.call_at(3, noop)
        assert env.peek() == 3

    def test_clock_jumps_to_event_times(self, env):
        times = []
        for t in (2, 9):
            env.call_at(t, lambda: times.append(env.now))
        env.run()
        assert times == [2, 9]


class TestRun:
    def test_run_until_time_sets_clock(self, env):
        env.call_at(100, noop)
        env.run(until=50)
        assert env.now == 50
        assert env.peek() == 100  # event still queued

    def test_run_until_fires_events_due_at_the_bound(self, env):
        seen = []
        env.call_at(50, lambda: seen.append(env.now))
        env.run(until=50)
        assert seen == [50]

    def test_run_until_without_idle_advance_keeps_last_event_time(self, env):
        env.call_at(20, noop)
        env.call_at(100, noop)
        env.run(until=50, idle_advance=False)
        assert env.now == 20
        assert env.peek() == 100

    def test_run_until_past_raises(self, env):
        env.call_at(5, noop)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_events_processed_counter(self, env):
        for t in range(5):
            env.call_at(t, noop)
        env.run()
        assert env.events_processed == 5

    def test_run_all_respects_limit(self, env):
        def chain():
            # self-perpetuating event chain
            env.call_at(env.now + 1, chain)

        chain()
        with pytest.raises(SimulationError):
            env.run_all(limit=10)


class TestCallAt:
    def test_call_at_executes_at_time(self, env):
        seen = []
        env.call_at(12, lambda: seen.append(env.now))
        env.run()
        assert seen == [12]

    def test_call_at_past_raises(self, env):
        env.call_at(5, noop)
        env.run()
        with pytest.raises(ValueError):
            env.call_at(2, noop)

    def test_call_at_now_is_allowed(self, env):
        seen = []
        env.call_at(0, lambda: seen.append(True))
        env.run()
        assert seen == [True]


class TestDeterminism:
    def _run_program(self):
        env = Environment()
        rnd = random.Random(99)
        fired = []
        for _ in range(200):
            env.call_at(rnd.randint(0, 50), lambda: fired.append(env.now))
        env.run()
        return fired

    def test_identical_programs_replay_identically(self):
        assert self._run_program() == self._run_program()

    def test_fire_times_nondecreasing(self):
        times = self._run_program()
        assert times == sorted(times)
