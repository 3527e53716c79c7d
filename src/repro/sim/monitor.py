"""Measurement utilities: tallies, time series, and time-weighted averages.

These are deliberately simple, dependency-free accumulators.  They are used
by the database server and the experiment harness to collect the statistics
that back every figure in the paper (response times, staleness, profit per
adaptation period, ρ trajectories, queue lengths, ...).
"""

from __future__ import annotations

import math
import operator
import typing
from array import array


class Tally:
    """Streaming summary of an unweighted sample (Welford's algorithm)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def __repr__(self) -> str:
        return (f"<Tally {self.name!r} n={self.count} mean={self.mean:.4g} "
                f"min={self.minimum:.4g} max={self.maximum:.4g}>")

    def observe(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Sample mean; 0.0 when empty (convenient for reports)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two observations."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class FloatColumn(array):
    """An ``array('d')`` that also compares equal to a list of the same
    floats — 8 bytes a sample instead of a list slot plus a boxed float
    (40), for callers that read a series column like the list it was.
    Samples are stored as C doubles: an ``int`` reads back as the equal
    ``float``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            return (len(self) == len(other)
                    and all(map(operator.eq, self, other)))
        return super().__eq__(other)

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


class TimeSeries:
    """An explicit (time, value) series — e.g. Figure 9d's ρ
    trajectory — held as two packed :class:`FloatColumn` columns.

    With ``max_points`` set the series is *bounded*: once full it
    decimates itself to every other retained point and doubles its
    sampling stride, so arbitrarily long runs keep a fixed-interval
    downsampled view in O(max_points) memory instead of growing without
    bound.  ``offered`` counts every sample handed to :meth:`record`,
    retained or not.
    """

    def __init__(self, name: str = "", *,
                 max_points: int | None = None) -> None:
        if max_points is not None and max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.name = name
        self.times = FloatColumn("d")
        self.values = FloatColumn("d")
        #: Bound on retained points (None: unbounded, the default).
        self.max_points = max_points
        #: Samples offered via :meth:`record` (>= retained length).
        self.offered = 0
        #: Current decimation stride: every ``stride``-th offer is kept.
        self.stride = 1
        #: Last appended time — the monotonicity guard compares against
        #: this float instead of indexing the list on every record.
        self._last = float("-inf")

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name!r} n={len(self)}>"

    def record(self, time: float, value: float) -> None:
        if time < self._last:
            raise ValueError(
                f"time {time} precedes last recorded time {self._last}")
        self._last = time
        offer = self.offered
        self.offered = offer + 1
        if self.max_points is not None:
            if offer % self.stride:
                return
            if len(self.times) >= self.max_points:
                # Decimate: keep even positions (offers at multiples of
                # the doubled stride) and halve the retained length.
                del self.times[1::2]
                del self.values[1::2]
                self.stride *= 2
                if offer % self.stride:
                    return  # the current offer is off the new grid
        self.times.append(time)
        self.values.append(value)

    def items(self) -> typing.Iterator[tuple[float, float]]:
        return zip(self.times, self.values)

    def time_weighted_mean(self, until: float | None = None) -> float:
        """Mean of the piecewise-constant signal the samples describe.

        Each value holds from its sample time to the next sample (or to
        ``until`` for the last one).  Zero-duration intervals —
        back-to-back samples at the same simulated timestamp, which the
        server produces whenever several lifecycle events share one
        event-loop instant — contribute no weight, and a series whose
        whole span is zero falls back to the plain mean of its values
        instead of dividing by zero.
        """
        if not self.times:
            return 0.0
        stop = self.times[-1] if until is None else until
        if stop < self.times[-1]:
            raise ValueError(
                f"until={stop} precedes last sample {self.times[-1]}")
        area = 0.0
        for i in range(len(self.times) - 1):
            area += self.values[i] * (self.times[i + 1] - self.times[i])
        area += self.values[-1] * (stop - self.times[-1])
        span = stop - self.times[0]
        if span <= 0:
            return sum(self.values) / len(self.values)
        return area / span

    def moving_window_average(self, window: float) -> "TimeSeries":
        """Centred moving-window average over simulated time.

        This is the "filter with the moving-window size of 5 seconds" the
        paper applies before plotting Figure 9.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        smoothed = TimeSeries(f"{self.name}|mw{window}")
        half = window / 2.0
        n = len(self.times)
        lo = 0
        hi = 0
        acc = 0.0
        for i, t in enumerate(self.times):
            while hi < n and self.times[hi] <= t + half:
                acc += self.values[hi]
                hi += 1
            while lo < n and self.times[lo] < t - half:
                acc -= self.values[lo]
                lo += 1
            count = hi - lo
            smoothed.record(t, acc / count if count else 0.0)
        return smoothed


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal (queue lengths)."""

    def __init__(self, env_now: typing.Callable[[], float],
                 initial: float = 0.0, name: str = "") -> None:
        self.name = name
        self._now = env_now
        self._last_time = env_now()
        self._last_value = initial
        self._area = 0.0
        self._start = self._last_time

    def update(self, value: float) -> None:
        """Record that the signal changed to ``value`` now."""
        now = self._now()
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value

    @property
    def current(self) -> float:
        return self._last_value

    @property
    def average(self) -> float:
        """Time-weighted mean from creation until now."""
        now = self._now()
        area = self._area + self._last_value * (now - self._last_time)
        span = now - self._start
        return area / span if span > 0 else self._last_value


class Counter:
    """A named monotone counter with a convenience mapping container."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, by: int = 1) -> None:
        self.value += by

    def __repr__(self) -> str:
        return f"<Counter {self.name!r}={self.value}>"


class CounterSet:
    """Dict-of-counters with attribute-free, explicit access."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def increment(self, name: str, by: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        counter.value += by

    def value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def as_dict(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def __repr__(self) -> str:
        return f"<CounterSet {self.as_dict()!r}>"
