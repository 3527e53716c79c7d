"""Unit tests for the kernel's event primitives."""

import pytest

from repro.sim import Environment
from repro.sim.errors import EventLifecycleError
from repro.sim.events import Event, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value_and_ok(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_sets_exception(self, env):
        exc = RuntimeError("boom")
        event = env.event().fail(exc)
        assert event.triggered
        assert not event.ok
        assert event.value is exc

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_double_succeed_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(EventLifecycleError):
            event.succeed()

    def test_succeed_after_fail_raises(self, env):
        event = env.event().fail(ValueError("x"))
        event.defuse()
        with pytest.raises(EventLifecycleError):
            event.succeed()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(EventLifecycleError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(EventLifecycleError):
            env.event().ok

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]

    def test_processed_after_run(self, env):
        event = env.event().succeed()
        env.run()
        assert event.processed

    def test_trigger_copies_success(self, env):
        source = env.event().succeed("v")
        target = env.event()
        target.trigger(source)
        assert target.ok and target.value == "v"

    def test_trigger_copies_failure(self, env):
        exc = ValueError("source failed")
        source = env.event().fail(exc)
        source.defuse()
        target = env.event()
        target.trigger(source)
        target.defuse()
        assert not target.ok
        assert target.value is exc

    def test_trigger_from_untriggered_source_raises(self, env):
        # Regression: an untriggered source has _ok is None, which the
        # old code read as falsy and "failed" the target with the
        # PENDING sentinel as its exception object.
        source = env.event()
        target = env.event()
        with pytest.raises(EventLifecycleError, match="not .*triggered"):
            target.trigger(source)
        # The target must be untouched — still schedulable.
        assert not target.triggered
        target.succeed("fine")
        assert target.value == "fine"


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        seen = []

        def proc(env):
            yield env.timeout(12.5)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [12.5]

    def test_timeout_carries_value(self, env):
        results = []

        def proc(env):
            value = yield env.timeout(1.0, value="hello")
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == ["hello"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_zero_delay_fires_now(self, env):
        seen = []

        def proc(env):
            yield env.timeout(0.0)
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == [0.0]

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(waiter(env, 30, "c"))
        env.process(waiter(env, 10, "a"))
        env.process(waiter(env, 20, "b"))
        env.run()
        assert order == ["a", "b", "c"]
