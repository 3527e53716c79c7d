"""Reference trace generator: one record object per transaction, then one
global stable sort — the algorithm ``StockWorkloadGenerator`` used before
its traces became columnar.

The production generator appends straight into packed columns and emits
them already time-ordered with a per-second flush; this oracle keeps the
obviously-correct shape (generate everything in RNG order, ``sorted`` by
arrival) so ``test_workload_columnar.py`` can hold the production traces
to it row for row, bit for bit.  It shares the spec, the universe and the
sampling helpers with the production module, and nothing of the emit path.
"""

from repro.sim.rng import StreamRegistry
from repro.workload.stocks import PriceWalk, StockUniverse
from repro.workload.synthetic import (StockWorkloadGenerator, _distinct_stocks,
                                      _draw_pmf, _geometric, _poisson,
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
            symbol = universe.stock_for_update_rank(rank)
            burst_size = _geometric(rate_rng, geo_p)
            for trade in range(burst_size):
                offset = (0.0 if trade == 0 else
                          rate_rng.random() * spec.update_burst_window_ms)
                arrival = min(burst_start + offset, spec.duration_ms)
                exec_ms = spec.sample_update_exec(exec_rng)
                records.append(UpdateRecord(
                    arrival, symbol, exec_ms, value=walk.next_price(symbol)))
    return records
