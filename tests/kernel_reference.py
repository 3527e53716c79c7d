"""The event queue's executable specification: a plain ``heapq`` kernel.

:class:`HeapEnvironment` is the binary-heap kernel written the obvious
way — ``Timeout.__init__`` → :meth:`schedule` → one ``heappush``, one
``heappop`` per loop turn — and kept as the reference that
``tests/test_kernel_equivalence.py`` holds the production
:class:`repro.sim.Environment` (inlined ``timeout``, NaN refusal) to:
identical dispatch logs on random operation programs, bit-identical
ledgers on a fig5 policy run.  It is a test fixture, not an extension
point.
"""

from __future__ import annotations

import math
import typing
from heapq import heappop, heappush

from repro.sim.environment import (Entry, Environment, Infinity,
                                   _stop_simulation)
from repro.sim.errors import (EventLifecycleError, SchedulingError,
                              StopSimulation)
from repro.sim.events import Event, Timeout
from repro.sim.process import Event_NORMAL


class HeapEnvironment(Environment):
    """One binary heap of ``(time, priority, eid, event)`` tuples.

    Every method that touches the queue or the clock is overridden here
    and written plainly (no inlined event construction, one pop per loop
    turn, a linear scan in ``advance``), so
    the equivalence tests compare two implementations of the dispatch
    order; only the queue-free helpers (``event``, ``process``, the
    sanitizer loop over ``_pop_entry``) are inherited.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._queue: list[Entry] = []

    def __repr__(self) -> str:
        return f"<HeapEnvironment t={self._now} queued={len(self._queue)}>"

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = Event_NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {event!r} in the past "
                                  f"(delay={delay})")
        heappush(self._queue,
                 (self._now + delay, priority, next(self._eid), event))

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def advance(self, delay: float) -> bool:
        """Stand in for ``timeout(delay)`` when that timeout would be
        dispatched next, before anything else.

        Written from the contract rather than from the production body:
        refuse a NaN, infinite or negative target; refuse unless the
        target is strictly before every pending entry; otherwise take the
        timeout's one ``eid``, show the sanitizer the timeout it replaces,
        and move the clock.
        """
        target = self._now + delay
        if math.isnan(target) or math.isinf(target) or delay < 0:
            return False
        if any(target >= entry[0] for entry in self._queue):
            return False
        eid = next(self._eid)
        self._now = target
        self.fast_forwards += 1
        if self.sanitizer is not None:
            stand_in = Timeout.__new__(Timeout)
            stand_in.env = self
            process = self.active_process
            stand_in.callbacks = ([] if process is None
                                  else [process._resume])
            self.sanitizer.begin_event(target, Event_NORMAL, eid, stand_in)
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else Infinity

    def _pop_entry(self) -> Entry:
        """Remove and return the single next entry in queue order."""
        try:
            return heappop(self._queue)
        except IndexError:
            raise EventLifecycleError("no more events") from None

    def step(self) -> None:
        """Process the next event, advancing the clock to its time."""
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EventLifecycleError("no more events") from None

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = typing.cast(BaseException, event._value)
            raise exc

    def run(self, until: float | Event | None = None) -> object:
        """Run until ``until`` (a time, an event, or queue exhaustion)."""
        stop_event: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise SchedulingError(
                        f"until={at} lies in the past (now={self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, delay=at - self._now,
                              priority=Event_NORMAL + 1)
            if stop_event.callbacks is None:
                if not stop_event._ok and not stop_event._defused:
                    raise typing.cast(BaseException, stop_event._value)
                return stop_event.value
            stop_event.callbacks.append(_stop_simulation)

        if self.sanitizer is not None:
            return self._run_sanitized()

        queue = self._queue
        observer = self.telemetry
        try:
            if observer is not None:
                on_event = observer.on_event
                while queue:
                    self._now, _, _, event = heappop(queue)
                    on_event(event)
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event._defused:
                        raise typing.cast(BaseException, event._value)
            else:
                while queue:
                    self._now, _, _, event = heappop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event._defused:
                        raise typing.cast(BaseException, event._value)
        except StopSimulation as stop:
            return stop.value

        return None
