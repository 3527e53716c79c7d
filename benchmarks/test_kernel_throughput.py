"""Micro-benchmarks of the simulation substrate itself.

These are the only benches measuring wall-clock performance rather than
reproduced results: the event-loop rate of the DES kernel and the
end-to-end simulated-transaction rate of the full stack.  They guard
against performance regressions that would make the full-scale
experiments impractical (the 30-minute trace replays ~580k transactions).

The kernel is measured as a **depth curve**, not a single point: the
classic *hold model* (``depth`` processes, each re-arming one timeout,
so the queue holds ``depth`` pending events throughout, about one event
per simulated millisecond) at pending depths from 1 to 65,536.  The
library's own traffic sits at the shallow end — mean 5-18 pending
events on every benchmark workload, at most 126
(``tests/test_kernel_traffic.py``) — and the deep end is recorded so
that whoever brings deeper traffic knows what the binary heap costs
there before choosing another structure.  Measured rates are appended
to ``benchmarks/results/kernel_throughput.json`` so the performance
trajectory across commits has data.
"""

import gc
import json
import time

from conftest import host_metadata

from repro.experiments.runner import run_simulation
from repro.qc.generator import QCFactory
from repro.scheduling import QUTSScheduler
from repro.sim import Environment
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

N_TIMEOUT_EVENTS = 50_000
#: Hold model: pending depths measured, events timed at each, rounds.
HOLD_DEPTHS = (1, 16, 128, 1_024, 8_192, 65_536)
HOLD_EVENTS = 200_000
HOLD_ROUNDS = 3
#: CI-safe floors (events/s).  The committed artifact records the
#: measured curve; these only catch a kernel that stopped being a heap.
MIN_SHALLOW_RATE = 300_000   # every depth <= 128
MIN_DEEPEST_RATE = 100_000   # depth 65,536


def _record(results_dir, name: str, payload: dict) -> None:
    """Merge one measurement block into the kernel-throughput artifact."""
    path = results_dir / "kernel_throughput.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged["host"] = host_metadata()
    merged[name] = payload
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def _timed(fn, *args):
    """One measurement with the collector parked outside the clock."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, result
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _timeout_storm():
    env = Environment()
    fired = [0]

    def ticker(env):
        for __ in range(N_TIMEOUT_EVENTS):
            yield env.timeout(1.0)
            fired[0] += 1

    env.process(ticker(env))
    env.run()
    return fired[0]


def _hold_model(depth: int) -> float:
    """Events per second with ``depth`` timeouts pending throughout."""
    env = Environment()
    fired = [0]

    def holder(env, state):
        while True:
            # Deterministic jitter in [0.5, 1.5) x depth ms: the mean
            # re-arm delay equals the depth, so the whole model fires
            # about one event per simulated millisecond at any depth.
            state = (state * 7919 + 1) % 1_000_003
            yield env.timeout(depth * (0.5 + state / 1_000_003.0))
            fired[0] += 1

    for k in range(depth):
        env.process(holder(env, k))
    env.run(until=0.0)  # start every process: `depth` timeouts pending
    fired[0] = 0
    elapsed, __ = _timed(env.run, float(HOLD_EVENTS))
    return fired[0] / elapsed


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
def test_kernel_event_rate(benchmark, results_dir):
    fired = benchmark(_timeout_storm)
    assert fired == N_TIMEOUT_EVENTS
    # Sanity floor: a pure-Python DES should clear well over 100k
    # timeout events per second on any modern machine.
    events_per_second = N_TIMEOUT_EVENTS / benchmark.stats["mean"]
    assert events_per_second > 100_000
    _record(results_dir, "kernel_event_rate", {
        "mean_s": benchmark.stats["mean"],
        "rate": events_per_second,
        "rate_unit": "events/s",
        "workload": f"shallow ticker storm ({N_TIMEOUT_EVENTS} x 1ms)",
    })


def test_kernel_depth_curve(results_dir):
    """The hold model at each pending depth, best of ``HOLD_ROUNDS``."""
    curve = {depth: max(_hold_model(depth) for __ in range(HOLD_ROUNDS))
             for depth in HOLD_DEPTHS}
    _record(results_dir, "depth_curve", {
        "workload": (f"hold model: N processes each re-arming one "
                     f"timeout (mean delay N ms), {HOLD_EVENTS} "
                     f"simulated ms timed at each depth"),
        "curve": [{"pending": depth, "events_per_s": round(rate)}
                  for depth, rate in curve.items()],
        "rounds": HOLD_ROUNDS,
        "protocol": "max rate over rounds, gc disabled",
    })
    print("\nkernel depth curve: " + ", ".join(
        f"{depth}: {rate / 1e3:.0f}k/s" for depth, rate in curve.items()))
    for depth, rate in curve.items():
        if depth <= 128:
            assert rate >= MIN_SHALLOW_RATE, (depth, rate)
    assert curve[HOLD_DEPTHS[-1]] >= MIN_DEEPEST_RATE


def _end_to_end_slice():
    trace = StockWorkloadGenerator(WorkloadSpec().scaled(10_000.0),
                                   master_seed=3).generate()
    result = run_simulation(QUTSScheduler(), trace, QCFactory.balanced(),
                            master_seed=1, drain_ms=5_000.0)
    return result, len(trace.queries) + len(trace.updates)


def test_end_to_end_transaction_rate(benchmark, results_dir):
    result, n_txns = benchmark.pedantic(_end_to_end_slice, rounds=3,
                                        iterations=1, warmup_rounds=1)
    assert result.counters["queries_submitted"] > 0
    txns_per_second = n_txns / benchmark.stats["mean"]
    # The full 30-minute trace (~580k txns) must stay replayable in
    # minutes: demand at least 10k simulated transactions per second.
    assert txns_per_second > 10_000
    _record(results_dir, "end_to_end_transaction_rate", {
        "mean_s": benchmark.stats["mean"],
        "rate": txns_per_second,
        "rate_unit": "txns/s",
    })
