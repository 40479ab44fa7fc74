"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


class TestEnvironment:
    def test_starts_at_time_zero(self):
        assert Environment().now == 0.0

    def test_initial_time(self):
        assert Environment(5.0).now == 5.0

    def test_run_empty_schedule(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_advances_clock_exactly(self):
        env = Environment()
        env.timeout(3)
        env.run(until=10)
        assert env.now == 10

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_step_on_empty_schedule_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_scheduled_counts_calendar_entries(self):
        env = Environment()
        assert env.scheduled == 0
        pending = env.event()  # a bare event is not on the calendar yet
        assert env.scheduled == 0

        def proc(env):
            yield env.timeout(1)

        env.process(proc(env))  # its start event
        pending.succeed()
        assert env.scheduled == 2
        env.run()
        # + the timeout and the process-end event; stepping adds nothing.
        assert env.scheduled == 4

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3


class TestTimeout:
    def test_fires_after_delay(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(5)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [5]

    def test_carries_value(self):
        env = Environment()

        def proc(env):
            value = yield env.timeout(1, value="hello")
            return value

        result = env.run(until=env.process(proc(env)))
        assert result == "hello"

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_nan_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        # Rejected before it reached the calendar: the clock stays sane.
        assert env.scheduled == 0
        env.run()
        assert env.now == 0

    def test_infinite_delay_allowed(self):
        env = Environment()
        forever = env.timeout(float("inf"))
        env.run(until=10)
        assert env.now == 10 and not forever.processed

    def test_zero_delay_fires_at_now(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(0)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [0]


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        evt = env.event()

        def proc(env, evt):
            value = yield evt
            return value

        p = env.process(proc(env, evt))
        evt.succeed(42)
        assert env.run(until=p) == 42

    def test_double_trigger_raises(self):
        env = Environment()
        evt = env.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_fail_raises_in_waiter(self):
        env = Environment()
        evt = env.event()
        caught = []

        def proc(env, evt):
            try:
                yield evt
            except ValueError as exc:
                caught.append(exc)

        env.process(proc(env, evt))
        evt.fail(ValueError("boom"))
        env.run()
        assert len(caught) == 1

    def test_unhandled_failure_propagates_from_run(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("unseen"))
        with pytest.raises(RuntimeError):
            env.run()

    def test_defused_failure_does_not_propagate(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("defused"))
        evt.defuse()
        env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_of_untriggered_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return "done"

        assert env.run(until=env.process(proc(env))) == "done"

    def test_yield_non_event_raises_inside_process(self):
        env = Environment()
        caught = []

        def proc(env):
            try:
                yield 42
            except SimulationError as exc:
                caught.append(exc)

        env.process(proc(env))
        env.run()
        assert len(caught) == 1

    def test_exception_in_process_propagates(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise KeyError("inside")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_waiting_on_finished_process(self):
        env = Environment()

        def fast(env):
            yield env.timeout(1)
            return 10

        def waiter(env, p):
            yield env.timeout(5)
            value = yield p  # already finished
            return value

        p = env.process(fast(env))
        w = env.process(waiter(env, p))
        assert env.run(until=w) == 10

    def test_is_alive(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_two_processes_interleave_deterministically(self):
        env = Environment()
        order = []

        def proc(env, name, delay):
            while env.now < 4:
                order.append((env.now, name))
                yield env.timeout(delay)

        env.process(proc(env, "a", 2))
        env.process(proc(env, "b", 1))
        env.run()
        assert order == [
            (0, "a"), (0, "b"), (1, "b"), (2, "a"), (2, "b"), (3, "b"),
        ]

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc(env):
            results = yield AllOf(env, [env.timeout(2, "a"), env.timeout(5, "b")])
            return (env.now, sorted(results.values()))

        assert env.run(until=env.process(proc(env))) == (5, ["a", "b"])

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(env):
            results = yield AnyOf(env, [env.timeout(2, "fast"), env.timeout(9, "slow")])
            return (env.now, list(results.values()))

        assert env.run(until=env.process(proc(env))) == (2, ["fast"])

    def test_and_operator(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1) & env.timeout(3)
            return env.now

        assert env.run(until=env.process(proc(env))) == 3

    def test_or_operator(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1) | env.timeout(3)
            return env.now

        assert env.run(until=env.process(proc(env))) == 1

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc(env):
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(proc(env))) == 0

    def test_all_of_with_already_processed_events(self):
        env = Environment()

        def waiter(env):
            t1 = env.timeout(1)
            t2 = env.timeout(2)
            yield env.timeout(5)
            yield AllOf(env, [t1, t2])
            return env.now

        assert env.run(until=env.process(waiter(env))) == 5


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self):
        env = Environment()
        assert env.run(until=env.timeout(3, "v")) == "v"
        assert env.now == 3

    def test_run_until_never_fires_raises(self):
        env = Environment()
        evt = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=evt)
