"""The traffic the event queue's design rests on, pinned.

:class:`repro.sim.Environment` is a binary heap because its queue is
shallow: a server holds one job in service plus the next arrival per
stream, so the number of *pending events* is a handful on a single
server and grows with the number of replicas and shards — never with
load.  An overloaded server's backlog sits in the scheduler's
*transaction* queues, which are a different structure.  Measured at
benchmark scale (seed 7) the pending depth after each push is mean 5.0
/ max 7 on ``des_quts_full``, 4.5 / 54 on ``des_uh_deep`` (whose
transaction queue is 2,002 deep), 11.1 / 126 on ``cluster_wal_crash``
and 17.8 / 28 on ``shard_skew_rebalance``; the maxima are bursts of
same-instant arrivals, each posting one interruption at the running
transaction, and — on the crash run — one failover back-off timer per
query the dead replica stranded.

These tests replay 30-second slices of the same three topologies on a
counting subclass of the kernel and bound the depth.  Whoever adds a
per-transaction timer (deadline events, per-request hedges at scale)
trips them — and should then revisit the queue with a benchmark
workload that holds that backlog, not with a guess: at these depths a
calendar or ladder queue costs more per event than the heap it replaces
(``docs/API.md`` §1, ``benchmarks/test_kernel_throughput.py``).
"""

import pytest

import repro.cluster.runner as cluster_runner_mod
import repro.experiments.runner as runner_mod
import repro.experiments.scaleout as scaleout_mod
from repro.cluster import HedgedRouter, run_cluster_simulation
from repro.db.wal import DurabilityConfig
from repro.experiments.runner import run_simulation
from repro.experiments.scaleout import (SKEW_REBALANCE, hot_key_spec,
                                        run_sharded_simulation)
from repro.faults import FaultPlan
from repro.qc.generator import QCFactory
from repro.scheduling import QUTSScheduler, make_scheduler
from repro.sim import Environment
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

SLICE_MS = 30_000.0
SEED = 7


class CountingEnvironment(Environment):
    """The production kernel, noting the queue length after each push."""

    #: Deepest queue any instance has seen (reset by the fixture).
    deepest = 0

    def schedule(self, event, delay=0.0, priority=1):
        super().schedule(event, delay, priority)
        self._note()

    def timeout(self, delay, value=None):
        event = super().timeout(delay, value)
        self._note()
        return event

    def _note(self):
        if len(self._queue) > CountingEnvironment.deepest:
            CountingEnvironment.deepest = len(self._queue)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(CountingEnvironment, "deepest", 0)
    for module in (runner_mod, cluster_runner_mod, scaleout_mod):
        monkeypatch.setattr(module, "Environment", CountingEnvironment)
    return CountingEnvironment


def _trace(spec=None):
    spec = spec or WorkloadSpec().scaled(SLICE_MS)
    return StockWorkloadGenerator(spec, SEED).generate()


def test_single_server_quts_holds_a_handful_of_events(counting):
    run_simulation(QUTSScheduler(), _trace(), QCFactory.balanced(),
                   master_seed=1)
    assert 0 < counting.deepest <= 16   # measured 6


def test_update_high_backlog_is_transactions_not_events(counting):
    """UH starves queries: the *transaction* queue runs hundreds deep
    while the event queue stays as shallow as under QUTS."""
    scheduler = make_scheduler("UH")
    submit_query = scheduler.submit_query
    deepest_backlog = 0

    def counting_submit(query):
        nonlocal deepest_backlog
        submit_query(query)
        deepest_backlog = max(deepest_backlog,
                              scheduler.pending_queries())

    scheduler.submit_query = counting_submit
    run_simulation(scheduler, _trace(), QCFactory.balanced(),
                   master_seed=1)
    assert deepest_backlog > 100        # measured 354
    assert 0 < counting.deepest <= 16   # measured 7


def test_replicated_wal_crash_depth_scales_with_replicas(counting):
    trace = _trace()
    run_cluster_simulation(
        3, QUTSScheduler, trace, QCFactory.balanced(),
        router=HedgedRouter(), master_seed=1,
        durability=DurabilityConfig(checkpoint_interval_ms=30_000.0),
        fault_plan=FaultPlan.portal_crash(0.6 * trace.duration_ms,
                                          5_000.0))
    assert 0 < counting.deepest <= 512  # measured 123


def test_sharded_skew_rebalance_depth_scales_with_shards(counting):
    trace = _trace(hot_key_spec(WorkloadSpec().scaled(SLICE_MS)))
    run_sharded_simulation(
        4, QUTSScheduler, trace, QCFactory.balanced(), master_seed=1,
        replicas_per_shard=2, rebalance=SKEW_REBALANCE)
    assert 0 < counting.deepest <= 128  # measured 27
