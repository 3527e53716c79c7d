"""Reference trace generator: one record object per transaction, then one
global stable sort — the algorithm ``StockWorkloadGenerator`` used before
its traces became columnar.

The production generator appends straight into packed columns and emits
them already time-ordered with a per-second flush; this oracle keeps the
obviously-correct shape (generate everything in RNG order, ``sorted`` by
arrival) so ``test_workload_columnar.py`` can hold the production traces
to it row for row, bit for bit.  It shares the spec, the universe and the
per-second helpers with the production module, and nothing of the emit
path.  Its per-row draws are the helpers the production loops had before
they were written out over hoisted samplers: plain calls into the stdlib
(``betavariate``, ``gauss``, ``uniform``) and per-draw Zipf lookups.
"""

import math

from repro.sim.rng import StreamRegistry
from repro.workload.stocks import StockUniverse
from repro.workload.synthetic import (StockWorkloadGenerator, _poisson,
                                      _seconds)
from repro.workload.traces import QueryRecord, UpdateRecord


def reference_records(spec, master_seed):
    """``(queries, updates)``: record lists in the order the trace must
    replay them."""
    streams = StreamRegistry(master_seed).spawn("workload")
    universe = StockUniverse(
        spec.n_stocks, streams.stream("universe"),
        popularity_correlation=spec.popularity_correlation)
    generator = StockWorkloadGenerator(spec, master_seed)
    generator.crowds = generator._draw_crowds(streams.stream("query.crowds"))
    queries = _reference_queries(generator, universe, streams)
    updates = _reference_updates(spec, universe, streams)
    return (sorted(queries, key=lambda r: r.arrival_ms),
            sorted(updates, key=lambda r: r.arrival_ms))


def _reference_queries(generator, universe, streams):
    spec = generator.spec
    rate_rng = streams.stream("query.arrivals")
    pick_rng = streams.stream("query.stocks")
    exec_rng = streams.stream("query.exec")
    records = []
    for second_start in _seconds(spec.duration_ms):
        rate = generator.query_rate_at(second_start)
        window = min(1000.0, spec.duration_ms - second_start)
        count = _poisson(rate_rng, rate * window / 1000.0)
        for __ in range(count):
            arrival = second_start + rate_rng.random() * window
            n_items = _draw_pmf(pick_rng, spec.read_set_pmf) + 1
            items = _distinct_stocks(
                lambda: pick_rng.zipf_rank(universe.n_stocks,
                                           spec.query_zipf_theta),
                universe, n_items)
            exec_ms = exec_rng.uniform(*spec.query_exec_range_ms)
            records.append(QueryRecord(arrival, items, exec_ms))
    return records


def _reference_updates(spec, universe, streams):
    rate_rng = streams.stream("update.arrivals")
    pick_rng = streams.stream("update.stocks")
    exec_rng = streams.stream("update.exec")
    walk = PriceWalk(universe, streams.stream("update.prices"))
    records = []
    burst_rate_scale = 1.0 / spec.update_burst_mean
    geo_p = 1.0 / spec.update_burst_mean
    for second_start in _seconds(spec.duration_ms):
        rate = spec.update_rate_at(second_start) * burst_rate_scale
        window = min(1000.0, spec.duration_ms - second_start)
        n_bursts = _poisson(rate_rng, rate * window / 1000.0)
        for __ in range(n_bursts):
            burst_start = second_start + rate_rng.random() * window
            rank = pick_rng.zipf_rank(universe.n_stocks,
                                      spec.update_zipf_theta) - 1
            symbol = universe.update_ranked[rank]
            burst_size = _geometric(rate_rng, geo_p)
            for trade in range(burst_size):
                offset = (0.0 if trade == 0 else
                          rate_rng.random() * spec.update_burst_window_ms)
                arrival = min(burst_start + offset, spec.duration_ms)
                exec_ms = sample_update_exec(spec, exec_rng)
                records.append(UpdateRecord(
                    arrival, symbol, exec_ms, value=walk.next_price(symbol)))
    return records


def sample_update_exec(spec, rng):
    """A service time in ``update_exec_range_ms`` with the configured
    mean (Beta(1, b)-shaped within the range)."""
    low, high = spec.update_exec_range_ms
    mean_frac = (spec.update_exec_mean_ms - low) / (high - low)
    b = 1.0 / mean_frac - 1.0
    return low + (high - low) * rng.betavariate(1.0, b)


class PriceWalk:
    """A lazy per-stock multiplicative random walk for update values."""

    def __init__(self, universe, rng, step_stdev=0.001):
        self._prices = dict(universe.initial_prices)
        self._rng = rng
        self._step_stdev = step_stdev

    def next_price(self, symbol):
        """The next traded price for ``symbol`` (mutates the walk)."""
        current = self._prices.get(symbol, 100.0)
        multiplier = 1.0 + self._rng.gauss(0.0, self._step_stdev)
        new_price = max(0.01, current * multiplier)
        self._prices[symbol] = new_price
        return new_price


def _geometric(rng, p):
    """Geometric variate on {1, 2, ...} with success probability ``p``."""
    if p >= 1.0:
        return 1
    u = rng.random()
    return 1 + int(math.log(max(u, 1e-300)) / math.log(1.0 - p))


def _draw_pmf(rng, pmf):
    u = rng.random()
    acc = 0.0
    for index, p in enumerate(pmf):
        acc += p
        if u <= acc:
            return index
    return len(pmf) - 1


def _distinct_stocks(rank, universe, n_items):
    chosen = []
    seen = set()
    # Cap the rejection loop; with thousands of stocks collisions are rare.
    attempts = 0
    while len(chosen) < n_items and attempts < 20 * n_items:
        attempts += 1
        symbol = universe.query_ranked[rank() - 1]
        if symbol not in seen:
            seen.add(symbol)
            chosen.append(symbol)
    return tuple(chosen)
