"""A hierarchical registry of counters, gauges, histograms, and series.

The registry *wraps* the measurement primitives the simulator already
trusts (:mod:`repro.sim.monitor`'s ``Counter``/``Tally``/``TimeSeries``)
behind slash-separated hierarchical names — ``"replica0/txn/commit"``,
``"server/sched/rho"`` — so one object aggregates everything a run
produces and the exporters can walk it uniformly.

Time series are *bounded* (``TimeSeries(max_points=...)``'s
fixed-interval downsampling), so week-long simulated runs keep O(1)
memory per signal.  ``Histogram`` adds fixed-boundary bucket counts on
top of ``Tally``'s streaming moments, cheap enough for per-commit
latencies.
"""

from __future__ import annotations

import bisect
import typing

from repro.sim.monitor import Counter, Tally, TimeSeries

#: Default bound on retained points per registry series.
DEFAULT_SERIES_POINTS = 4_096

#: Default histogram boundaries (ms-ish scale: latencies, staleness).
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                   500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0)


class Histogram:
    """A ``Tally`` plus fixed-boundary bucket counts.

    Bucket ``i`` counts observations ``<= boundaries[i]``; the final
    implicit bucket counts the overflow.  Boundaries are fixed at
    construction.
    """

    __slots__ = ("name", "boundaries", "counts", "tally")

    def __init__(self, name: str = "",
                 boundaries: typing.Sequence[float] = DEFAULT_BUCKETS,
                 ) -> None:
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.name = name
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.tally = Tally(name)

    def __repr__(self) -> str:
        return (f"<Histogram {self.name!r} n={self.tally.count} "
                f"mean={self.tally.mean:.4g}>")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.tally.observe(value)


class MetricsRegistry:
    """Lazily-created, name-addressed metrics with hierarchical scoping.

    All four metric kinds share one flat namespace keyed by the full
    slash path; :meth:`scoped` returns a view that prefixes every name,
    which is how each replica (or the portal, or the kernel) gets its
    own subtree without threading path strings everywhere.
    """

    def __init__(self, *,
                 series_points: int = DEFAULT_SERIES_POINTS) -> None:
        if series_points < 2:
            raise ValueError(
                f"series_points must be >= 2, got {series_points}")
        self.series_points = series_points
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, TimeSeries] = {}
        self._histograms: dict[str, Histogram] = {}

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")

    # ------------------------------------------------------------------
    # Metric accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge(self, name: str) -> TimeSeries:
        """A bounded (time, value) series — ρ, queue depth, backlog."""
        series = self._gauges.get(name)
        if series is None:
            series = TimeSeries(name, max_points=self.series_points)
            self._gauges[name] = series
        return series

    def histogram(self, name: str,
                  boundaries: typing.Sequence[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, boundaries)
            self._histograms[name] = histogram
        return histogram

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view registering every metric under ``prefix/``."""
        return ScopedRegistry(self, prefix)

    # ------------------------------------------------------------------
    # Iteration / aggregation
    # ------------------------------------------------------------------
    def counter_values(self) -> dict[str, int]:
        return {name: c.value
                for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, TimeSeries]:
        return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))


class ScopedRegistry:
    """A prefixing view over a :class:`MetricsRegistry`."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        if not prefix or prefix.endswith("/"):
            raise ValueError(f"bad scope prefix {prefix!r}")
        self._registry = registry
        self.prefix = prefix

    def __repr__(self) -> str:
        return f"<ScopedRegistry {self.prefix!r}>"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.prefix}/{name}")

    def gauge(self, name: str) -> TimeSeries:
        return self._registry.gauge(f"{self.prefix}/{name}")

    def histogram(self, name: str,
                  boundaries: typing.Sequence[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        return self._registry.histogram(f"{self.prefix}/{name}",
                                        boundaries)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, f"{self.prefix}/{prefix}")
