"""Unit tests for the Environment event loop."""

import pytest

from repro.sim import Environment, Infinity
from repro.sim.errors import EventLifecycleError, SchedulingError
from tests.kernel_reference import HeapEnvironment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=500.0).now == 500.0

    def test_run_until_time_advances_clock(self):
        env = Environment()

        def idle(env):
            yield env.timeout(1000)

        env.process(idle(env))
        env.run(until=250.0)
        assert env.now == 250.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=100.0)
        with pytest.raises(SchedulingError):
            env.run(until=50.0)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def producer(env, done):
            yield env.timeout(5)
            done.succeed("answer")

        done = env.event()
        env.process(producer(env, done))
        assert env.run(until=done) == "answer"
        assert env.now == 5.0

    def test_run_exhausts_queue_without_until(self):
        env = Environment()

        def short(env):
            yield env.timeout(7)

        env.process(short(env))
        env.run()
        assert env.now == 7.0

    def test_events_at_until_time_are_processed(self):
        """Events scheduled exactly at the horizon run before stopping."""
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10.0)
        assert fired == [10.0]

    def test_run_until_processed_success_returns_value(self):
        env = Environment()
        done = env.event().succeed("answer")
        env.run()  # processes `done`
        assert env.run(until=done) == "answer"

    def test_run_until_processed_failed_event_reraises(self):
        # Regression: run(until=<already-processed failed event>) used
        # to *return* the exception object as the run value instead of
        # raising it the way the live path does.
        env = Environment()
        exc = RuntimeError("already failed")
        failed = env.event().fail(exc)
        failed.defuse()  # survive the live dispatch...
        env.run()
        failed._defused = False  # ...then present it un-defused
        with pytest.raises(RuntimeError, match="already failed"):
            env.run(until=failed)

    def test_run_until_processed_defused_failure_returns_value(self):
        """A defused failure is a handled outcome: returned, not raised."""
        env = Environment()
        exc = RuntimeError("handled")
        failed = env.event().fail(exc)
        failed.defuse()
        env.run()
        assert env.run(until=failed) is exc


class TestScheduling:
    def test_peek_empty_is_infinity(self):
        assert Environment().peek() == Infinity

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(42.0)
        assert env.peek() == 42.0

    def test_step_empty_raises(self):
        with pytest.raises(EventLifecycleError):
            Environment().step()

    def test_nan_delay_rejected(self):
        env = Environment()
        with pytest.raises(SchedulingError, match="non-finite"):
            env.timeout(float("nan"))

    def test_infinite_timeout_dispatches_after_all_finite_events(self):
        env = Environment()
        order = []
        env.timeout(float("inf"), value="far").callbacks.append(
            lambda event: order.append(event._value))
        env.timeout(5.0, value="near").callbacks.append(
            lambda event: order.append(event._value))
        env.run()
        assert order == ["near", "far"]
        assert env.now == Infinity

    def test_negative_delay_rejected(self):
        env = Environment()
        event = env.event()
        event._ok = True
        event._value = None
        with pytest.raises(SchedulingError):
            env.schedule(event, delay=-5.0)

    def test_same_time_fifo_among_equal_priority(self):
        env = Environment()
        order = []

        def waiter(env, tag):
            yield env.timeout(10)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(waiter(env, tag))
        env.run()
        assert order == ["first", "second", "third"]

    def test_active_process_tracking(self):
        env = Environment()
        observed = []

        def proc(env):
            observed.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc(env))
        assert env.active_process is None
        env.run()
        assert observed == [p]
        assert env.active_process is None

    def test_repr_mentions_time(self):
        env = Environment(initial_time=3.0)
        assert "3.0" in repr(env)


@pytest.mark.parametrize("env_cls", [Environment, HeapEnvironment])
class TestAdvance:
    """``advance(delay)`` replaces ``yield timeout(delay)`` only when that
    timeout would be the next entry dispatched, strictly."""

    def test_true_on_an_empty_queue(self, env_cls):
        env = env_cls(initial_time=2.0)
        assert env.advance(3.5)
        assert env.now == 5.5
        assert env.fast_forwards == 1
        assert next(env._eid) == 1  # the timeout's one eid was consumed

    def test_true_strictly_before_the_head(self, env_cls):
        env = env_cls()
        env.timeout(5.0)
        assert env.advance(4.0)
        assert env.now == 4.0
        assert env.peek() == 5.0  # the pending entry is untouched

    def test_refused_at_an_exact_tie_with_the_head(self, env_cls):
        env = env_cls()
        env.timeout(5.0)
        assert not env.advance(5.0)
        assert env.now == 0.0
        assert env.fast_forwards == 0
        assert next(env._eid) == 1  # nothing consumed beyond the timeout

    @pytest.mark.parametrize("delay", [Infinity, float("nan"), -1.0])
    def test_refuses_non_finite_and_negative_targets(self, env_cls, delay):
        env = env_cls()
        assert not env.advance(delay)
        assert env.now == 0.0
        assert next(env._eid) == 0

    def test_refused_targets_still_go_through_timeout(self, env_cls):
        env = env_cls()
        assert not env.advance(Infinity)
        env.timeout(Infinity)  # legal, as before
        assert env.peek() == Infinity
        assert env.advance(1.0)  # finite beats a pending +inf entry
        if env_cls is Environment:
            # NaN is refused by advance and then, loudly, by timeout.
            assert not env.advance(float("nan"))
            with pytest.raises(SchedulingError):
                env.timeout(float("nan"))

    def test_a_fast_forwarding_process_keeps_every_time_and_eid(
            self, env_cls):
        def program(fast):
            env = env_cls()
            seen = []

            def worker():
                for delay in (1.0, 2.0, 2.0, 0.5):
                    if not (fast and env.advance(delay)):
                        yield env.timeout(delay)
                    seen.append(env.now)

            def ticker():
                yield env.timeout(3.0)
                seen.append(("tick", env.now))

            env.process(worker())
            env.process(ticker())
            env.run()
            return seen, next(env._eid), env.fast_forwards

        fast, slow = program(True), program(False)
        assert fast[:2] == slow[:2]
        # Refused: the step to 1.0 (the ticker's start is pending at 0),
        # to 3.0 (a tie with the ticker's timeout) and to 5.0 (the
        # ticker's exit is pending at 3.0).  Taken: 5.5, on an empty queue.
        assert (fast[2], slow[2]) == (1, 0)
