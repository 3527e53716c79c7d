"""The live monotonic clock — the only module allowed to read the host
clock inside :mod:`repro.serve`.

Everything in the gateway measures time through
:class:`MonotonicClock`, which implements the same
:class:`~repro.scheduling.core.SchedulerClock` surface the DES binds via
:class:`~repro.scheduling.core.DESClock`: ``now`` in milliseconds and
``call_periodic`` for QUTS's ρ-adaptation — plus the serving stack's
one pacing primitive, ``sleep_until(at_ms)``: an *absolute* wake-up, so
a late one shortens the next wait instead of pushing every later one
back (chained relative sleeps accumulate their overshoot).  Keeping every
``time.monotonic()`` read behind this one class is enforced by simlint's
``no-wall-clock`` rule (this file is its single exemption under
``src/repro/serve/``), so the rest of the serving stack stays testable
against a :class:`ManualClock` and cannot grow hidden host-time
dependencies.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
import typing


class _Periodic:
    """One registered periodic callback (period in ms)."""

    __slots__ = ("period_ms", "fn", "name")

    def __init__(self, period_ms: float,
                 fn: typing.Callable[[float], None], name: str) -> None:
        self.period_ms = period_ms
        self.fn = fn
        self.name = name


class MonotonicClock:
    """Milliseconds since construction, read from ``time.monotonic``.

    Implements :class:`~repro.scheduling.core.SchedulerClock`.
    ``call_periodic`` registrations become asyncio tasks once
    :meth:`start` runs inside an event loop (registrations made after
    ``start`` spawn immediately); :meth:`stop` cancels them.  The zero
    point is the clock's construction instant, so gateway timestamps are
    small, comparable floats just like simulated time.
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()
        self._periodics: list[_Periodic] = []
        self._tasks: list[asyncio.Task[None]] = []
        self._started = False

    @property
    def now(self) -> float:
        """Milliseconds elapsed since the clock was created."""
        return (time.monotonic() - self._origin) * 1000.0

    async def sleep_until(self, at_ms: float) -> None:
        """Return no earlier than clock time ``at_ms``, yielding to the
        loop at least once (a past instant costs one ``sleep(0)`` turn)."""
        while True:
            await asyncio.sleep(max(at_ms - self.now, 0.0) / 1000.0)
            if self.now >= at_ms:  # else the loop's timer fired early
                return

    def call_periodic(self, period_ms: float,
                      fn: typing.Callable[[float], None], *,
                      name: str) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {period_ms}")
        periodic = _Periodic(period_ms, fn, name)
        self._periodics.append(periodic)
        if self._started:
            self._spawn(periodic)

    # ------------------------------------------------------------------
    # Lifecycle (driven by the gateway)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one asyncio ticker task per registered periodic."""
        if self._started:
            return
        self._started = True
        for periodic in self._periodics:
            self._spawn(periodic)

    def _spawn(self, periodic: _Periodic) -> None:
        task = asyncio.get_running_loop().create_task(
            self._tick(periodic), name=periodic.name)
        self._tasks.append(task)

    async def _tick(self, periodic: _Periodic) -> None:
        # The next instant of the start + k x period grid strictly after
        # now: no drift, and periods a stall covered are skipped (one
        # late firing), never fired in a burst.
        period, due = periodic.period_ms, self.now
        while True:
            due += period * ((self.now - due) // period + 1)
            await self.sleep_until(due)
            periodic.fn(self.now)

    async def stop(self) -> None:
        """Cancel every ticker task and wait for them to unwind."""
        self._started = False
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass


class ManualClock:
    """A hand-cranked :class:`~repro.scheduling.core.SchedulerClock` for
    tests: ``advance`` moves time, firing periodics and releasing
    ``sleep_until`` sleepers in due order (ties: registration order),
    with no host clock."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = start_ms
        #: ``(due, registration order, periodic | parked sleeper)`` heap.
        self._timers: list[tuple[
            float, int, "_Periodic | asyncio.Future[None]"]] = []
        self._order = itertools.count()

    @property
    def now(self) -> float:
        return self._now

    def call_periodic(self, period_ms: float,
                      fn: typing.Callable[[float], None], *,
                      name: str) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {period_ms}")
        heapq.heappush(self._timers, (self._now + period_ms, next(self._order),
                                      _Periodic(period_ms, fn, name)))

    async def sleep_until(self, at_ms: float) -> None:
        """Park until ``advance`` reaches ``at_ms`` (or is next called)."""
        future: asyncio.Future[None] = (
            asyncio.get_running_loop().create_future())
        heapq.heappush(self._timers, (at_ms, next(self._order), future))
        await future

    def advance(self, delta_ms: float) -> None:
        """Move the clock forward, firing periodics and releasing
        sleepers as they come due."""
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards ({delta_ms})")
        target = self._now + delta_ms
        timers = self._timers
        while timers and timers[0][0] <= target:
            due, order, timer = heapq.heappop(timers)
            self._now = max(self._now, due)
            if isinstance(timer, _Periodic):
                heapq.heappush(timers, (due + timer.period_ms, order, timer))
                timer.fn(self._now)
            elif not timer.done():  # else its task was cancelled
                timer.set_result(None)
        self._now = target
