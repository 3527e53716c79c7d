"""A scripted host for the live tier: deterministic timer overshoot, no
host clock.

:class:`ScriptedClock` is a :class:`~repro.serve.clock.MonotonicClock`
whose time is a plain float that only moves when every task is asleep:
``sleep_until(at)`` parks the caller, and when the event loop would
otherwise block, the earliest parked sleeper is woken at
``max(now, at) + overshoot`` with the overshoot taken, in park order,
from a script.  A sleep to an instant already past costs one loop turn
and no overshoot — what ``asyncio.sleep(0)`` costs on a real host.

The real ``_tick`` / ``start`` / ``stop`` / ``call_periodic`` are
inherited, so a :class:`~repro.serve.gateway.QCGateway` runs on this
clock unchanged (``QCGateway(..., clock=ScriptedClock(...))`` inside
:func:`run_scripted`) and every timestamp it produces is exact
arithmetic on the script — the oracle for the executor's pacing rule.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import selectors
import typing

from repro.serve.clock import MonotonicClock


class Wake(typing.NamedTuple):
    """One completed sleep: who slept, until when, and when it woke."""

    task: str
    at_ms: float
    woke_ms: float


class _Sleeper(typing.NamedTuple):
    task: str
    at_ms: float
    future: "asyncio.Future[None]"


class ScriptedClock(MonotonicClock):
    def __init__(self, overshoots: typing.Iterable[float] = (0.0,)) -> None:
        super().__init__()
        self._now = 0.0
        self._overshoots = itertools.cycle(overshoots)
        #: ``(wake instant, park order, sleeper)`` min-heap.
        self._parked: list[tuple[float, int, _Sleeper]] = []
        self._order = itertools.count()
        #: Every completed sleep, in wake order.
        self.wakes: list[Wake] = []

    @property
    def now(self) -> float:
        return self._now

    async def sleep_until(self, at_ms: float) -> None:
        wake = (at_ms + next(self._overshoots) if at_ms > self._now
                else self._now)
        task = asyncio.current_task()
        sleeper = _Sleeper(task.get_name() if task else "", at_ms,
                           asyncio.get_running_loop().create_future())
        heapq.heappush(self._parked, (wake, next(self._order), sleeper))
        await sleeper.future

    def wake_next(self) -> bool:
        """Every task is asleep: move time to the earliest wake-up."""
        while self._parked:
            wake, _, sleeper = heapq.heappop(self._parked)
            if sleeper.future.done():
                continue  # its task was cancelled
            self._now = wake
            self.wakes.append(Wake(sleeper.task, sleeper.at_ms, wake))
            sleeper.future.set_result(None)
            return True
        return False


class _IdleSelector(selectors.DefaultSelector):
    """Turns "the loop is about to block" into scripted time passing."""

    def __init__(self, clock: ScriptedClock) -> None:
        super().__init__()
        self._clock = clock

    def select(self, timeout: float | None = None
               ) -> list[tuple[selectors.SelectorKey, int]]:
        if timeout is None or timeout > 0:
            if self._clock.wake_next():
                timeout = 0
            elif timeout is None:
                raise RuntimeError(
                    "scripted run is stuck: every task is waiting and "
                    "nothing is parked on the clock")
        return super().select(timeout)


_T = typing.TypeVar("_T")


def run_scripted(clock: ScriptedClock,
                 main: typing.Coroutine[typing.Any, typing.Any, _T]) -> _T:
    """``asyncio.run(main)`` on a loop whose only time is ``clock``."""
    loop = asyncio.SelectorEventLoop(_IdleSelector(clock))
    try:
        return loop.run_until_complete(main)
    finally:
        loop.close()
