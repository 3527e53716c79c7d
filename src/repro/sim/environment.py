"""The simulation environment: clock, event queue, and run loop.

:class:`Environment` owns simulated time and the pending-event queue.
Time is a float; in this library it is interpreted as milliseconds
throughout (the paper's workload is specified in milliseconds).

Event-queue discipline
----------------------

Events are dispatched in exact ``(time, priority, eid)`` order, where
``eid`` is a strictly increasing insertion counter — same time and
priority means strict FIFO.  This total order is the contract every
bit-identity guarantee in the repository rests on, and it has one
implementation in the library, here (enforced by the
``single-event-queue`` simlint rule): a binary heap of ``(time,
priority, eid, event)`` tuples whose natural order *is* the contract.
An independently written heap kernel lives beside the other executable
specifications in ``tests/kernel_reference.py``; the hypothesis
equivalence tests require identical dispatch sequences and ledgers from
both.

A heap because of the traffic the queue actually carries: a server
holds one job in service plus the next arrival per stream, so the mean
pending depth is 5-18 events on every benchmark workload (at most 126:
the failover back-off timers of the queries a replica crash stranded)
and grows with the number of replicas, never with load —
``tests/test_kernel_traffic.py`` pins those depths.  Nothing in the
library arms a timer per submitted transaction.

An entry at ``+inf`` (``timeout(float("inf"))``) sorts after every
finite one on its own.  A NaN time compares false against everything
and would silently break the heap's order, so :meth:`Environment.schedule`
and :meth:`Environment.timeout` refuse it with
:class:`~repro.sim.errors.SchedulingError`.

Every interruption is an event, so a process whose ``timeout(delay)``
would be dispatched strictly before the queue's head may skip it:
:meth:`Environment.advance` sets the clock, consumes the timeout's one
``eid`` and counts ``fast_forwards``.  Contract: the caller is the only
subscriber of the event that resumed it, or that event's later
callbacks would run after the skipped interval instead of before it.
"""

from __future__ import annotations

import typing
from heapq import heappop, heappush
from itertools import count

from .errors import EventLifecycleError, SchedulingError, StopSimulation
from .events import Event, Timeout
from .process import Event_NORMAL, Process, ProcessGenerator

Infinity = float("inf")

#: One pending entry: the total order is the tuple's natural order.
Entry = typing.Tuple[float, int, int, Event]


class EventObserver(typing.Protocol):
    """What :attr:`Environment.telemetry` must provide.

    Structural so the kernel stays import-free of
    :mod:`repro.telemetry` (which imports the kernel); the concrete
    implementation is ``repro.telemetry.hooks.KernelProbe``.
    """

    def on_event(self, event: Event) -> None:
        ...  # pragma: no cover - protocol


class SanitizerProbe(typing.Protocol):
    """What :attr:`Environment.sanitizer` must provide.

    Structural for the same reason as :class:`EventObserver`; the
    concrete implementation is ``repro.sim.sanitizer.Sanitizer``.
    Unlike telemetry's ``on_event``, the sanitizer sees the full queue
    entry — the determinism analysis needs the exact ``(time, priority,
    eid)`` dispatch coordinates, and it must observe them *before* the
    event's callbacks run so it can snapshot the eid watermark.
    """

    def begin_event(self, time: float, priority: int, eid: int,
                    event: Event) -> None:
        ...  # pragma: no cover - protocol


class Environment:
    """A single-clock discrete-event simulation environment.

    Example::

        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(10.0)

        env.process(ticker(env))
        env.run(until=100.0)
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Strictly increasing insertion counter.  Typed as a plain
        #: iterator because the sanitizer swaps in a readable (or
        #: permuted) counter — see :mod:`repro.sim.sanitizer`.
        self._eid: typing.Iterator[int] = count()
        self._active_proc: Process | None = None
        #: Binary min-heap of pending entries (see the module docstring).
        self._queue: list[Entry] = []
        #: Optional kernel telemetry observer.  ``None`` (the default)
        #: keeps :meth:`run` on the uninstrumented loop — the disabled
        #: path costs one comparison per ``run()`` call, not per event.
        self.telemetry: EventObserver | None = None
        #: Optional determinism sanitizer (``repro.sim.sanitizer``).
        #: ``None`` (the default) keeps :meth:`run` on the loops below;
        #: installed, :meth:`run` switches to :meth:`_run_sanitized`,
        #: which dispatches in the identical ``(time, priority, eid)``
        #: order via :meth:`_pop_entry` but exposes every entry to the
        #: probe.
        self.sanitizer: SanitizerProbe | None = None
        #: Timeouts :meth:`advance` replaced (``kernel/fast_forwards``).
        self.fast_forwards = 0

    def __repr__(self) -> str:
        return f"<Environment t={self._now} queued={len(self._queue)}>"

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process whose generator is currently executing, if any."""
        return self._active_proc

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event triggering ``delay`` time units from now.

        Timeouts dominate event creation (every service slice, arrival
        and adaptation period is one), so this constructs and enqueues
        the event inline rather than through ``Timeout.__init__`` →
        :meth:`schedule` — same fields, same one ``eid`` consumed, two
        call frames fewer per event.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = delay
        t = self._now + delay
        if t != t:
            raise SchedulingError(
                f"cannot schedule {event!r} at non-finite time {t}")
        heappush(self._queue, (t, Event_NORMAL, next(self._eid), event))
        return event

    def advance(self, delay: float) -> bool:
        """Fast-forward in place of ``yield timeout(delay)`` (see the module
        docstring) when ``now + delay`` is finite and strictly before the
        queue's head (``+inf`` if empty); a sanitizer sees a stand-in
        ``Timeout``.  False on a tie, ``inf``, NaN or a negative delay."""
        queue = self._queue
        t = self._now + delay
        if not (delay >= 0 and t < (queue[0][0] if queue else Infinity)):
            return False
        eid = next(self._eid)
        self._now = t
        self.fast_forwards += 1
        if self.sanitizer is not None:
            stand_in = Timeout.__new__(Timeout)
            proc = self._active_proc
            stand_in.env, stand_in.callbacks = self, (
                [proc._resume] if proc is not None else [])
            self.sanitizer.begin_event(t, Event_NORMAL, eid, stand_in)
        return True

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Start a new process from ``generator``; returns its Process
        event."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = Event_NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {event!r} in the past "
                                  f"(delay={delay})")
        t = self._now + delay
        if t != t:  # NaN orders against nothing: it would corrupt the heap
            raise SchedulingError(
                f"cannot schedule {event!r} at non-finite time {t}")
        heappush(self._queue, (t, priority, next(self._eid), event))

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
        self._now, _, _, event = self._pop_entry()

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: abort the simulation loudly.
            exc = typing.cast(BaseException, event._value)
            raise exc

    def _run_sanitized(self) -> object:
        """The :meth:`run` loop under an installed determinism sanitizer.

        Dispatches entries through :meth:`_pop_entry` — the same order
        as the plain loops — handing each ``(time, priority, eid,
        event)`` tuple to the probe *before* its callbacks run.  Opt-in
        and slower than the plain path (see
        ``benchmarks/test_sanitizer_overhead``); results are
        bit-identical with the sanitizer on or off.
        """
        probe = self.sanitizer
        assert probe is not None
        begin_event = probe.begin_event
        try:
            while True:
                try:
                    t, priority, eid, event = self._pop_entry()
                except EventLifecycleError:
                    return None
                self._now = t
                begin_event(t, priority, eid, event)
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)
                if not event._ok and not event._defused:
                    raise typing.cast(BaseException, event._value)
        except StopSimulation as stop:
            return stop.value

    def run(self, until: float | Event | None = None) -> object:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        Returns the value of the ``until`` event if one was given and it
        triggered, else ``None``.
        """
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
                # Use low priority so all events at `at` run first.
                stop_event._ok = True
                stop_event._value = None
                self.schedule(stop_event, delay=at - self._now,
                              priority=Event_NORMAL + 1)
            if stop_event.callbacks is None:
                # Already processed before run() was called.  Mirror the
                # live path's unhandled-failure semantics: a failed,
                # undefused event aborts the run with its exception
                # rather than leaking the exception object as a value.
                if not stop_event._ok and not stop_event._defused:
                    raise typing.cast(BaseException, stop_event._value)
                return stop_event.value
            stop_event.callbacks.append(_stop_simulation)

        if self.sanitizer is not None:
            return self._run_sanitized()

        # The telemetry variant is a separate loop so the disabled path
        # pays nothing per event — the observer check happens once, here.
        queue = self._queue
        observer = self.telemetry
        try:
            if observer is not None:
                on_event = observer.on_event  # bind once, not per event
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
                        # An unhandled failure: abort the simulation
                        # loudly.
                        raise typing.cast(BaseException, event._value)
        except StopSimulation as stop:
            return stop.value
        return None


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event._value)
