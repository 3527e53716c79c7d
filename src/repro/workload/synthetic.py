"""Synthetic Stock.com + NYSE workload generator.

The paper evaluates on proprietary traces (Stock.com user queries and NYSE
trades, 9:30-10:00 am on 2000-04-24).  They are not available, so this
module generates a workload reproducing every *published* characteristic
(see DESIGN.md §2 for the substitution argument):

* Table 3 — 82,129 queries / 496,892 updates over 30 minutes on 4,608
  stocks; query service 5-9 ms; update service 1-5 ms;
* Figure 5(a) — per-second query rate mostly stationary with small
  fluctuations *plus occasional flash-crowd spikes* (the paper's intro:
  "high volumes of user requests, especially during periods of peak load or
  flash crowds"; the plotted trace spikes to ~4× its base rate);
* Figure 5(b) — per-second update rate with a clear downward trend (the
  open-of-trading surge decaying over the half hour);
* Figure 5(c) — Zipf-skewed per-stock popularity, with query- and
  update-popularity drawn independently so most stocks receive more updates
  than queries (points below the diagonal);
* trade clustering — real trades on hot stocks arrive in sub-second bursts
  ("a tsunami of stock trades because of breaking news"); bursts are what
  make the update register table effective even under update-eager
  policies, which is required for UH's finite (~11.6 s) mean response time
  in Figure 1 despite a raw offered load above 1.

Arrivals are a piecewise-nonhomogeneous Poisson process: a per-second rate
profile is evaluated, a Poisson count is drawn per second, and arrivals are
scattered uniformly within the second.  With the default parameters the raw
offered CPU load is ≈ 1.0 (queries ≈ 0.32, updates ≈ 0.72), i.e. the
server rides the edge of saturation — and beyond it during the open-of-
trading surge and query flash crowds — unless scheduling lets the update
register table shed superseded work;
matching the paper's premise that "it may be extremely hard to apply all
updates on time ... and also get fast response times".
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import typing
from array import array
from bisect import bisect_left

from repro.sim.rng import RandomStream, StreamRegistry, zipf_cdf

from .stocks import StockUniverse
from .traces import (Column, QueryRecord, RecordColumns, Row, Trace,
                     UpdateRecord)

#: Published workload constants (Table 3).
PAPER_DURATION_MS = 30 * 60 * 1000.0
PAPER_N_QUERIES = 82_129
PAPER_N_UPDATES = 496_892
PAPER_N_STOCKS = 4_608
PAPER_QUERY_EXEC_RANGE_MS = (5.0, 9.0)
PAPER_UPDATE_EXEC_RANGE_MS = (1.0, 5.0)
#: Standard deviation of a trade's relative price step.
PRICE_STEP_STDEV = 0.001


@dataclasses.dataclass
class WorkloadSpec:
    """Parameters of the synthetic workload (defaults = the paper's trace).

    ``duration_ms`` scales the trace down for cheap experiments while
    keeping *rates* (and therefore load and contention) identical; the
    published totals correspond to the full 30 minutes.
    """

    duration_ms: float = PAPER_DURATION_MS
    n_stocks: int = PAPER_N_STOCKS
    #: Mean arrival rates per second over the full paper trace.
    query_rate_per_s: float = PAPER_N_QUERIES / (PAPER_DURATION_MS / 1000.0)
    update_rate_per_s: float = PAPER_N_UPDATES / (PAPER_DURATION_MS / 1000.0)
    #: Fractional amplitude of slow sinusoidal drift in the query rate
    #: (Figure 5a: "small changes over time").
    query_rate_wobble: float = 0.15
    #: Flash crowds: expected episodes per (full-trace-equivalent) 5 min,
    #: episode length range (s), and rate multiplier range.  Figure 5a's
    #: excursions are short, sharp spikes (a few seconds at ~3-4x the base
    #: rate); the spikes' extra query mass is part of the published totals,
    #: so the base rate is scaled down by ``1 / (1 + crowd_mass)`` to keep
    #: the trace at ~82k queries.
    crowds_per_5min: float = 6.0
    crowd_duration_s: tuple[float, float] = (2.0, 6.0)
    crowd_multiplier: tuple[float, float] = (3.0, 4.5)
    #: The update rate declines linearly from (1+trend) to (1-trend) times
    #: its mean across the trace (Figure 5b: "downward trend" — the plotted
    #: NYSE rate shows the open-of-trading surge decaying through the
    #: half hour).
    update_rate_trend: float = 0.15
    #: Trade clustering: mean burst size (geometric; 1.0 = no clustering)
    #: and the window (ms) a burst's trades spread over.
    update_burst_mean: float = 2.2
    update_burst_window_ms: float = 800.0
    #: Zipf skew of per-stock popularity.
    query_zipf_theta: float = 0.9
    update_zipf_theta: float = 0.75
    #: Probability that a stock's update-popularity rank equals its
    #: query-popularity rank ("jittery investors" query the stocks that are
    #: trading hard).  The rest are matched at random, preserving Figure
    #: 5(c)'s wide scatter.
    popularity_correlation: float = 0.5
    #: Service-time ranges, milliseconds (Table 3).
    query_exec_range_ms: tuple[float, float] = PAPER_QUERY_EXEC_RANGE_MS
    update_exec_range_ms: tuple[float, float] = PAPER_UPDATE_EXEC_RANGE_MS
    #: Mean update service time within its range.  Table 3 publishes only
    #: the 1-5 ms *range*; a mean at the midpoint (3 ms) would make the
    #: update stream alone consume 0.83 CPUs on average (1.2+ at the open),
    #: under which even the update-eager UH baseline could never show the
    #: finite ~11.6 s mean response time of Figure 1.  A low-skewed mean of
    #: ~2.6 ms (most trades touch one hash bucket; a few cascade) keeps
    #: overload *episodic* — the open-of-trading surge and query flash
    #: crowds — which is the regime all of the paper's numbers describe.
    update_exec_mean_ms: float = 2.6
    #: Distribution of read-set sizes: P(1 item), P(2 items), P(3 items) —
    #: look-ups / moving averages touch one stock, comparisons several.
    read_set_pmf: tuple[float, ...] = (0.70, 0.20, 0.10)

    def __post_init__(self) -> None:
        if not self.duration_ms > 0:
            raise ValueError("duration must be positive")
        if self.n_stocks <= 0:
            raise ValueError("need at least one stock")
        if not math.isclose(sum(self.read_set_pmf), 1.0, rel_tol=1e-9):
            raise ValueError("read_set_pmf must sum to 1")
        if not 0 <= self.query_rate_wobble < 1:
            raise ValueError("query_rate_wobble must be in [0, 1)")
        if not 0 <= self.update_rate_trend < 1:
            raise ValueError("update_rate_trend must be in [0, 1)")
        for name in ("query_rate_per_s", "update_rate_per_s",
                     "crowds_per_5min", "update_burst_window_ms",
                     "query_zipf_theta", "update_zipf_theta"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("crowd_duration_s", "crowd_multiplier"):
            low, high = getattr(self, name)
            if not 0 <= low <= high:
                raise ValueError(
                    f"{name} must satisfy 0 <= low <= high, "
                    f"got {getattr(self, name)}")
        if not self.update_burst_mean >= 1.0:
            raise ValueError("update_burst_mean must be >= 1")
        low, high = self.update_exec_range_ms
        if not low < self.update_exec_mean_ms < high:
            raise ValueError(
                f"update_exec_mean_ms must lie strictly inside "
                f"{self.update_exec_range_ms}")
        if not 0.0 <= self.popularity_correlation <= 1.0:
            raise ValueError("popularity_correlation must be in [0, 1]")

    def scaled(self, duration_ms: float) -> "WorkloadSpec":
        """The same workload characteristics over a shorter horizon."""
        return dataclasses.replace(self, duration_ms=duration_ms)

    # ------------------------------------------------------------------
    # Rate profiles (per-second expected arrivals, before flash crowds)
    # ------------------------------------------------------------------
    def base_query_rate_at(self, t_ms: float) -> float:
        """Expected queries/second at ``t_ms``, without crowd episodes.

        Already normalised by :attr:`crowd_mass_factor`, so base + crowds
        integrates to ``query_rate_per_s × duration``.
        """
        phase = 2.0 * math.pi * t_ms / self.duration_ms
        # Two incommensurate slow waves give "small changes over time".
        wobble = (math.sin(3.0 * phase) + math.sin(7.1 * phase + 1.3)) / 2.0
        rate = self.query_rate_per_s * (1.0 + self.query_rate_wobble * wobble)
        return rate / self.crowd_mass_factor

    def update_rate_at(self, t_ms: float) -> float:
        """Expected update *arrivals*/second at ``t_ms`` (declining
        trend)."""
        frac = t_ms / self.duration_ms
        trend = 1.0 + self.update_rate_trend * (1.0 - 2.0 * frac)
        phase = 2.0 * math.pi * t_ms / self.duration_ms
        wobble = 1.0 + 0.10 * math.sin(11.0 * phase + 0.7)
        return self.update_rate_per_s * trend * wobble

    @property
    def crowd_mass_factor(self) -> float:
        """Expected query mass multiplier contributed by flash crowds.

        Base rates are divided by this so the trace's *total* query count
        stays at the published value regardless of crowd configuration.
        """
        mean_duration = sum(self.crowd_duration_s) / 2.0
        mean_extra = sum(self.crowd_multiplier) / 2.0 - 1.0
        mass = self.crowds_per_5min * mean_duration * mean_extra / 300.0
        return 1.0 + mass

    @property
    def offered_load(self) -> float:
        """Approximate raw CPU demand per unit time (>1 means overload
        before invalidation sheds any update work)."""
        q_mean = sum(self.query_exec_range_ms) / 2.0
        return (self.query_rate_per_s * q_mean
                + self.update_rate_per_s * self.update_exec_mean_ms) / 1000.0

    def update_exec_sampler(self,
                            rng: RandomStream) -> typing.Callable[[], float]:
        """Zero-argument draws of a service time in
        ``update_exec_range_ms`` with the configured mean (Beta(1,
        b)-shaped within the range), from ``rng``."""
        low, high = self.update_exec_range_ms
        mean_frac = (self.update_exec_mean_ms - low) / (high - low)
        b = 1.0 / mean_frac - 1.0
        return rng.beta_sampler(1.0, b, low, high)


@dataclasses.dataclass(frozen=True)
class CrowdEpisode:
    """One query flash crowd: [start, end) with a rate multiplier."""

    start_ms: float
    end_ms: float
    multiplier: float

    def factor_at(self, t_ms: float) -> float:
        return self.multiplier if self.start_ms <= t_ms < self.end_ms else 1.0


class StockWorkloadGenerator:
    """Generates deterministic :class:`Trace` objects from a spec + seed."""

    def __init__(self, spec: WorkloadSpec | None = None,
                 master_seed: int = 0) -> None:
        self.spec = spec or WorkloadSpec()
        self.master_seed = master_seed
        #: Crowd episodes of the last generated trace (for inspection).
        self.crowds: list[CrowdEpisode] = []

    def __repr__(self) -> str:
        return (f"<StockWorkloadGenerator seed={self.master_seed} "
                f"duration={self.spec.duration_ms / 1000:.0f}s "
                f"load={self.spec.offered_load:.2f}>")

    def generate(self, name: str = "stockcom") -> Trace:
        """Build the full trace (queries + updates, time-sorted)."""
        spec = self.spec
        streams = StreamRegistry(self.master_seed).spawn("workload")
        universe = StockUniverse(
            spec.n_stocks, streams.stream("universe"),
            popularity_correlation=spec.popularity_correlation)

        self.crowds = self._draw_crowds(streams.stream("query.crowds"))
        queries = self._generate_queries(universe, streams)
        updates = self._generate_updates(universe, streams)
        return Trace(queries, updates, spec.duration_ms, name=name)

    # ------------------------------------------------------------------
    def _draw_crowds(self, rng: RandomStream) -> list[CrowdEpisode]:
        spec = self.spec
        episodes: list[CrowdEpisode] = []
        expected = spec.crowds_per_5min * spec.duration_ms / 300_000.0
        count = _poisson(rng, expected)
        for __ in range(count):
            duration = rng.uniform(*spec.crowd_duration_s) * 1000.0
            start = rng.uniform(0.0, max(0.0, spec.duration_ms - duration))
            episodes.append(CrowdEpisode(
                start, start + duration,
                rng.uniform(*spec.crowd_multiplier)))
        episodes.sort(key=lambda e: e.start_ms)
        return episodes

    def query_rate_at(self, t_ms: float) -> float:
        """Query rate including the crowds of the last generated trace."""
        factor = 1.0
        for crowd in self.crowds:
            factor = max(factor, crowd.factor_at(t_ms))
        return self.spec.base_query_rate_at(t_ms) * factor

    # The two row loops below run once per transaction of the trace, so
    # every draw is a C call or one sampler closure, with its constants
    # in locals: the Zipf ranks bisect the cached CDF and index the
    # universe's rank -> symbol lists, and the read-set size, the
    # distinct-stock rejection, the geometric burst size and the price
    # walk are written out.  Each consumes its stream's uniforms exactly
    # as ``tests/trace_reference.py``'s stdlib calls do.
    def _generate_queries(self, universe: StockUniverse,
                          streams: StreamRegistry
                          ) -> RecordColumns[QueryRecord]:
        spec = self.spec
        rate_rng = streams.stream("query.arrivals")
        arrival_u = rate_rng.random
        pick = streams.stream("query.stocks").random
        cdf = zipf_cdf(universe.n_stocks, spec.query_zipf_theta)
        ranked = universe.query_ranked
        # Read-set size n takes a uniform up to the n-th cumulative
        # probability; one above the last (rounding) takes the largest.
        bounds = list(itertools.accumulate(spec.read_set_pmf))
        largest = len(bounds)
        exec_u = streams.stream("query.exec").random
        exec_low, exec_high = spec.query_exec_range_ms
        exec_span = exec_high - exec_low
        columns: tuple[Column, ...] = (array("d"), [], array("d"))
        pending: list[Row] = []
        append = pending.append
        for second_start in _seconds(spec.duration_ms):
            rate = self.query_rate_at(second_start)
            window = min(1000.0, spec.duration_ms - second_start)
            count = _poisson(rate_rng, rate * window / 1000.0)
            for __ in range(count):
                arrival = second_start + arrival_u() * window
                u = pick()
                for n_items, bound in enumerate(bounds, 1):
                    if u <= bound:
                        break
                else:
                    n_items = largest
                # Distinct stocks by rejection, capped: with thousands of
                # stocks collisions are rare.
                items: list[str] = []
                attempts = 0
                while len(items) < n_items and attempts < 20 * n_items:
                    attempts += 1
                    symbol = ranked[bisect_left(cdf, pick())]
                    if symbol not in items:
                        items.append(symbol)
                append((arrival, tuple(items),
                        exec_low + exec_span * exec_u()))
            _flush(pending, columns, second_start + 1000.0)
        _flush(pending, columns, math.inf)
        return RecordColumns(QueryRecord, *columns)

    def _generate_updates(self, universe: StockUniverse,
                          streams: StreamRegistry
                          ) -> RecordColumns[UpdateRecord]:
        spec = self.spec
        rate_rng = streams.stream("update.arrivals")
        arrival_u = rate_rng.random
        pick = streams.stream("update.stocks").random
        cdf = zipf_cdf(universe.n_stocks, spec.update_zipf_theta)
        ranked = universe.update_ranked
        draw_exec = spec.update_exec_sampler(streams.stream("update.exec"))
        # Each trade moves its stock's price by a factor 1 + N(0, 0.1 %).
        prices = dict(universe.initial_prices)
        step = streams.stream("update.prices").gauss_sampler(
            0.0, PRICE_STEP_STDEV)
        duration = spec.duration_ms
        burst_window = spec.update_burst_window_ms
        columns: tuple[Column, ...] = (array("d"), [], array("d"),
                                       array("d"))
        pending: list[Row] = []
        append = pending.append
        # Bursts (trade clusters) arrive as a Poisson process at the trade
        # rate divided by the mean burst size; each burst's trades hit the
        # same stock within a short window.  A burst's size is geometric
        # on {1, 2, ...} with success probability 1 / mean, by inversion
        # (one uniform) unless the mean is 1.  The first trade lands at
        # the burst's start (an offset of 0.0 would add nothing), the
        # others spread over the window after it.
        burst_rate_scale = 1.0 / spec.update_burst_mean
        geo_p = 1.0 / spec.update_burst_mean
        log_q = math.log(1.0 - geo_p) if geo_p < 1.0 else 0.0
        log = math.log
        for second_start in _seconds(duration):
            rate = spec.update_rate_at(second_start) * burst_rate_scale
            window = min(1000.0, duration - second_start)
            n_bursts = _poisson(rate_rng, rate * window / 1000.0)
            for __ in range(n_bursts):
                burst_start = second_start + arrival_u() * window
                symbol = ranked[bisect_left(cdf, pick())]
                more_trades = (
                    0 if geo_p >= 1.0 else
                    int(log(max(arrival_u(), 1e-300)) / log_q))
                price = max(0.01, prices[symbol] * (1.0 + step()))
                append((min(burst_start, duration), symbol, draw_exec(),
                        price))
                for __ in range(more_trades):
                    price = max(0.01, price * (1.0 + step()))
                    append((min(burst_start + arrival_u() * burst_window,
                                duration), symbol, draw_exec(), price))
                prices[symbol] = price
            _flush(pending, columns, second_start + 1000.0)
        _flush(pending, columns, math.inf)
        return RecordColumns(UpdateRecord, *columns)


def paper_trace(master_seed: int = 0,
                duration_ms: float = PAPER_DURATION_MS) -> Trace:
    """The default reproduction workload (optionally time-scaled)."""
    spec = WorkloadSpec().scaled(duration_ms)
    return StockWorkloadGenerator(spec, master_seed).generate()


# ----------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------
_ARRIVAL = operator.itemgetter(0)


def _flush(pending: list[Row], columns: tuple[Column, ...],
           before_ms: float) -> None:
    """Move the rows of ``pending`` arriving before ``before_ms`` onto
    ``columns``, in arrival order.

    A row generated in a later second never arrives before that second
    starts (bursts spread forwards only), so flushing up to the next
    second's start after each second emits exactly the whole trace's
    stable sort by arrival: ties keep generation order because leftovers
    precede new rows in ``pending`` and the sort is stable.
    """
    pending.sort(key=_ARRIVAL)
    ready = bisect_left(pending, before_ms, key=_ARRIVAL)
    if ready:
        for column, cells in zip(columns, zip(*pending[:ready])):
            column.extend(cells)
        del pending[:ready]


def _seconds(duration_ms: float) -> typing.Iterator[float]:
    t = 0.0
    while t < duration_ms:
        yield t
        t += 1000.0


def _poisson(rng: RandomStream, mean: float) -> int:
    """Poisson variate via Knuth (small means) / normal approx (large)."""
    if mean <= 0:
        return 0
    if mean > 700.0:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
