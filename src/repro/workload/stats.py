"""Trace statistics: the numbers behind Figure 5 and Table 3.

These helpers extract, from any :class:`~repro.workload.traces.Trace`:

* per-second query/update rates (Figure 5a/b);
* per-stock query and update counts (the Figure 5c scatter);
* the Table 3 summary (totals, service-time ranges, stock count).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from .traces import Trace


@dataclasses.dataclass(frozen=True)
class RateSeries:
    """Arrivals per second, indexed by second."""

    seconds: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def mean(self) -> float:
        return sum(self.counts) / len(self.counts) if self.counts else 0.0

    @property
    def maximum(self) -> int:
        return max(self.counts) if self.counts else 0

    def first_half_mean(self) -> float:
        half = len(self.counts) // 2
        return (sum(self.counts[:half]) / half) if half else 0.0

    def second_half_mean(self) -> float:
        half = len(self.counts) // 2
        rest = self.counts[half:]
        return (sum(rest) / len(rest)) if rest else 0.0


def query_rate_series(trace: Trace) -> RateSeries:
    """Figure 5(a): number of queries per second."""
    return _rate_series((row[0] for row in trace.queries.rows()),
                        trace.duration_ms)


def update_rate_series(trace: Trace) -> RateSeries:
    """Figure 5(b): number of updates per second."""
    return _rate_series((row[0] for row in trace.updates.rows()),
                        trace.duration_ms)


def _rate_series(arrivals_ms: typing.Iterable[float],
                 duration_ms: float) -> RateSeries:
    n_seconds = max(1, math.ceil(duration_ms / 1000.0))
    counts = [0] * n_seconds
    for arrival in arrivals_ms:
        index = min(n_seconds - 1, int(arrival / 1000.0))
        counts[index] += 1
    return RateSeries(tuple(float(s) for s in range(n_seconds)),
                      tuple(counts))


@dataclasses.dataclass(frozen=True)
class PerStockCounts:
    """Figure 5(c): per-stock (query_count, update_count) pairs."""

    queries: dict[str, int]
    updates: dict[str, int]

    def scatter(self) -> list[tuple[str, int, int]]:
        """``(symbol, query_count, update_count)`` for every touched
        stock."""
        symbols = set(self.queries) | set(self.updates)
        return [(s, self.queries.get(s, 0), self.updates.get(s, 0))
                for s in sorted(symbols)]

    def fraction_below_diagonal(self) -> float:
        """Fraction of stocks with strictly more updates than queries —
        the paper's "most points are below the diagonal" observation."""
        points = self.scatter()
        if not points:
            return 0.0
        below = sum(1 for __, q, u in points if u > q)
        return below / len(points)


def per_stock_counts(trace: Trace) -> PerStockCounts:
    queries: dict[str, int] = {}
    updates: dict[str, int] = {}
    for __, items, __ in trace.queries.rows():
        for item in items:
            queries[item] = queries.get(item, 0) + 1
    for __, item, __, __ in trace.updates.rows():
        updates[item] = updates.get(item, 0) + 1
    return PerStockCounts(queries, updates)


@dataclasses.dataclass(frozen=True)
class WorkloadSummary:
    """Table 3: workload information."""

    n_queries: int
    n_updates: int
    n_stocks: int
    duration_s: float
    query_exec_min_ms: float
    query_exec_max_ms: float
    update_exec_min_ms: float
    update_exec_max_ms: float

    def rows(self) -> list[tuple[str, str]]:
        """Label/value pairs formatted like Table 3."""
        return [
            ("query execution time",
             f"{self.query_exec_min_ms:.0f} ~ {self.query_exec_max_ms:.0f}ms"),
            ("update execution time",
             f"{self.update_exec_min_ms:.0f} ~ "
             f"{self.update_exec_max_ms:.0f}ms"),
            ("# queries", str(self.n_queries)),
            ("# updates", str(self.n_updates)),
            ("# stocks", str(self.n_stocks)),
            ("duration", f"{self.duration_s:.0f}s"),
        ]


def summarize(trace: Trace) -> WorkloadSummary:
    """Compute the Table 3 summary for ``trace``."""
    q_exec = [exec_ms for __, __, exec_ms in trace.queries.rows()]
    u_exec = [exec_ms for __, __, exec_ms, __ in trace.updates.rows()]
    return WorkloadSummary(
        n_queries=len(trace.queries),
        n_updates=len(trace.updates),
        n_stocks=len(trace.stocks),
        duration_s=trace.duration_ms / 1000.0,
        query_exec_min_ms=min(q_exec) if q_exec else 0.0,
        query_exec_max_ms=max(q_exec) if q_exec else 0.0,
        update_exec_min_ms=min(u_exec) if u_exec else 0.0,
        update_exec_max_ms=max(u_exec) if u_exec else 0.0,
    )
