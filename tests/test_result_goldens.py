"""Full-precision result pins for the three replay entry points.

Each case replays a seeded smoke-scale trace (``SCALES["smoke"]``, one
minute) through one ``run_*`` entry point and pins ``(qos_percent,
qod_percent, total_percent, mean_response_time, sorted counters)`` bit
for bit.  Between them the cases cover what no ``bench/`` workload
runs: the UH single server, the cluster runner's update-stall gate and
load-spike query copies, and a 4 x 2 sharded portal that fans out and
cuts over under ``SKEW_REBALANCE``.

The constants were recorded by running this file against the tree
*before* the arrival pump, the shared commit rule and the profit
roll-up replaced their per-runner copies, so a refactor of any of the
three that changes one event, one float association or one counter
fails here.
"""

import pytest

from repro.cluster import run_cluster_simulation
from repro.experiments import run_sharded_simulation, run_simulation
from repro.experiments.config import SCALES
from repro.experiments.scaleout import SKEW_REBALANCE, hot_key_spec
from repro.faults import FaultPlan
from repro.qc.generator import QCFactory
from repro.scheduling import QUTSScheduler, make_scheduler
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

SMOKE_MS = SCALES["smoke"]


def _trace(spec=None, seed=5):
    spec = spec or WorkloadSpec().scaled(SMOKE_MS)
    return StockWorkloadGenerator(spec, master_seed=seed).generate()


def _single(policy):
    return run_simulation(make_scheduler(policy), _trace(),
                          QCFactory.balanced(), master_seed=2)


def _cluster():
    plan = FaultPlan.update_stall(10_000.0, 8_000.0).merged(
        FaultPlan.load_spike(25_000.0, 10_000.0, magnitude=3.0))
    return run_cluster_simulation(2, QUTSScheduler, _trace(),
                                  QCFactory.balanced(), master_seed=2,
                                  fault_plan=plan)


def _sharded(workload_seed, run_seed):
    trace = _trace(hot_key_spec(WorkloadSpec().scaled(SMOKE_MS)),
                   seed=workload_seed)
    return run_sharded_simulation(4, QUTSScheduler, trace,
                                  QCFactory.balanced(), master_seed=run_seed,
                                  replicas_per_shard=2,
                                  rebalance=SKEW_REBALANCE)


CASES = {
    "single-QUTS": lambda: _single("QUTS"),
    "single-UH": lambda: _single("UH"),
    "cluster-stall-spike": _cluster,
    # Flat and per-shard folds of the QoS / QoD sums differ here ...
    "sharded-4x2-rebalance": lambda: _sharded(5, 2),
    # ... and of total_gained here.
    "sharded-4x2-rebalance-seed23": lambda: _sharded(23, 1),
}


def observe(result):
    """What the pins cover, at full precision (plus the sharded result's
    raw sums, whose association the percentages can round away)."""
    return (result.qos_percent, result.qod_percent, result.total_percent,
            result.mean_response_time, sorted(result.counters.items()),
            getattr(result, "total_max", None),
            getattr(result, "total_gained", None))


GOLDEN = {
    "cluster-stall-spike": (
        0.4953547678356906, 0.48194425457266243, 0.9772990224083531,
        13.504079798652242,
        [("queries_committed", 2942),
         ("queries_submitted", 2942),
         ("restarts_updates", 7),
         ("updates_applied", 26494),
         ("updates_superseded", 6468)],
        None, None),
    "sharded-4x2-rebalance": (
        0.4971029308793439, 0.42270313296209494, 0.9198060638414389,
        5.893287840893606,
        [("keys_migrated", 713),
         ("queries_adopted", 1243),
         ("queries_committed", 3461),
         ("queries_fanned_out", 573),
         ("queries_single_shard", 1645),
         ("queries_submitted", 2218),
         ("rebalances", 8),
         ("restarts_queries", 5),
         ("restarts_updates", 12),
         ("updates_applied", 31015),
         ("updates_frozen", 1),
         ("updates_superseded", 1947)],
        132415.33721821345, 121796.43011892171),
    "sharded-4x2-rebalance-seed23": (
        0.4999207497018425, 0.40773107774575296, 0.9076518274475955,
        5.9857293477984035,
        [("keys_migrated", 638),
         ("queries_adopted", 1456),
         ("queries_committed", 4043),
         ("queries_fanned_out", 663),
         ("queries_single_shard", 1924),
         ("queries_submitted", 2587),
         ("rebalances", 8),
         ("restarts_queries", 3),
         ("restarts_updates", 26),
         ("updates_applied", 31702),
         ("updates_superseded", 2140)],
        154001.67555061114, 139779.9022435039),
    "single-QUTS": (
        0.4962588102830575, 0.48969022489593095, 0.9859490351789885,
        13.5127490395087,
        [("queries_committed", 2218),
         ("queries_submitted", 2218),
         ("restarts_updates", 1),
         ("updates_applied", 14910),
         ("updates_superseded", 1571)],
        None, None),
    "single-UH": (
        0.2633603716731063, 0.5028970691206559, 0.7662574407937621,
        2573.1081685977088,
        [("queries_committed", 2218),
         ("queries_submitted", 2218),
         ("restarts_queries", 69),
         ("updates_applied", 16115),
         ("updates_superseded", 366)],
        None, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_is_pinned(case):
    assert observe(CASES[case]()) == GOLDEN[case]
