"""Reference Zipf sampling and live-schedule construction: the
hand-written loops ``RandomStream.zipf_rank`` and
``repro.serve.loadgen.build_schedule`` used before they moved to C
``bisect.bisect_left`` and hoisted their per-arrival lookups (into
``RandomStream.zipf_sampler``, which every generator loop now holds).

Kept as oracles: ``test_sim_rng.py`` holds the production code to them
draw for draw — same streams, same order, same values — so every
schedule and trace (and every pinned benchmark fingerprint downstream)
is bit-identical across the swap.
"""

from repro.qc.generator import QCFactory
from repro.serve.loadgen import Arrival
from repro.sim.rng import StreamRegistry, zipf_cdf


def bisect_cdf_reference(cdf, u):
    """Leftmost index with ``cdf[index] >= u`` (capped at the last)."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def zipf_rank_reference(stream, n, theta):
    """What ``stream.zipf_rank(n, theta)`` returned before the swap."""
    if n <= 0:
        raise ValueError("n must be positive")
    return bisect_cdf_reference(zipf_cdf(n, theta), stream.random()) + 1


def zipf_sampler_reference(stream, n, theta):
    """``stream.zipf_sampler(n, theta)`` with nothing hoisted: the check,
    the CDF lookup and the hand-written bisection on every draw."""
    return lambda: zipf_rank_reference(stream, n, theta)


def build_schedule_reference(config):
    """The pre-hoist ``build_schedule``: everything looked up per arrival."""
    streams = StreamRegistry(config.master_seed)
    qc_factory = QCFactory.balanced()
    qc_rng = streams.stream("live.qc")
    arrivals = []

    rate = config.query_rate_per_s * config.rate_multiplier
    if rate > 0:
        rng = streams.stream("live.arrivals.query")
        keys = streams.stream("live.keys.query")
        execs = streams.stream("live.exec.query")
        mean_gap = 1000.0 / rate
        at = rng.exponential(mean_gap)
        low, high = config.query_exec_ms
        while at < config.duration_ms:
            rank = zipf_rank_reference(keys, config.n_keys,
                                       config.query_zipf_theta)
            arrivals.append(Arrival(
                at, "query", (f"S{rank:04d}",),
                execs.uniform(low, high),
                qc=qc_factory.sample(qc_rng, now=at)))
            at += rng.exponential(mean_gap)

    rate = config.update_rate_per_s * config.rate_multiplier
    if rate > 0:
        rng = streams.stream("live.arrivals.update")
        keys = streams.stream("live.keys.update")
        execs = streams.stream("live.exec.update")
        values = streams.stream("live.values.update")
        mean_gap = 1000.0 / rate
        at = rng.exponential(mean_gap)
        low, high = config.update_exec_ms
        while at < config.duration_ms:
            rank = zipf_rank_reference(keys, config.n_keys,
                                       config.update_zipf_theta)
            arrivals.append(Arrival(
                at, "update", (f"S{rank:04d}",),
                execs.uniform(low, high),
                value=values.uniform(1.0, 100.0)))
            at += rng.exponential(mean_gap)

    arrivals.sort(key=lambda a: a.at_ms)
    return arrivals
