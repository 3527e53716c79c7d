"""Sharded scale-out experiments: profit vs shard count, skew rebalancing.

The replication experiments (``repro.experiments.faults`` and friends)
scale *availability*: every replica still absorbs the full update
stream, so adding replicas never adds update capacity.  This driver
scales *throughput*: :func:`run_sharded_simulation` replays a trace
against a :class:`~repro.shard.ShardedPortal`, where the consistent-hash
ring divides the stocks — and therefore the update load — across shards,
while the shard planner keeps multi-stock queries correct via
scatter-gather.

Two sweeps back the claims in ``benchmarks/test_shard_scaleout.py``:

* :func:`shard_sweep` — one fixed trace replayed at several shard
  counts.  The aggregate offered load saturates a single server, so
  profit should climb as shards divide the work;
* :func:`skew_sweep` — a Zipf hot-key tier (skewed popularity, high
  query/update correlation) replayed with a static ring vs. a
  rebalancing one, holding everything else fixed.

Both fan out over :mod:`repro.parallel` workers and are bit-identical
for any worker count (each cell re-derives its own seed universe).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from repro.db.admission import AdmissionPolicy
from repro.db.server import ServerConfig
from repro.db.transactions import Query, restart_txn_ids
from repro.db.wal import DurabilityConfig
from repro.parallel import Task, run_tasks
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.scheduling.base import Scheduler
from repro.shard import RebalanceConfig, ShardedPortal
from repro.sim import Environment
from repro.sim.invariants import InvariantMonitor
from repro.sim.rng import StreamRegistry
from repro.telemetry.hooks import KernelProbe, TelemetryKnob
from repro.workload.sharding import split_update_streams
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from repro.workload.traces import QueryRecord, Trace, drive, replay_rows

from .config import ExperimentConfig
from .runner import QCSource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.health import HealthConfig
    from repro.cluster.routers import Router

#: Shard counts for the profit-vs-shards curve.
SHARD_COUNTS = (1, 2, 4, 8)

#: Default rebalance knobs for the skew tier (intervals sized so a
#: smoke-scale minute sees several controller decisions).
SKEW_REBALANCE = RebalanceConfig(interval_ms=5_000.0, skew_threshold=1.3)


def hot_key_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """A Zipf hot-key tier of ``spec``: sharper popularity skew and high
    query/update correlation, so a handful of stocks dominate both
    streams and the hash ring's static balance no longer equals load
    balance — the regime rebalancing exists for."""
    return dataclasses.replace(spec, query_zipf_theta=1.4,
                               update_zipf_theta=1.2,
                               popularity_correlation=0.95)


class ShardedResult:
    """Run-level outcome of a sharded replay (plain data, picklable)."""

    def __init__(self, portal: ShardedPortal, duration: float,
                 invariants_checked: bool = False) -> None:
        self.duration = duration
        self.n_shards = len(portal.shards)
        self.weights = dict(portal.ring.weights)
        rollup = portal.rollup()
        self.total_max = rollup.total_max
        self.total_gained = rollup.total_gained
        self.total_percent = rollup.total_percent
        self.qos_percent = rollup.qos_percent
        self.qod_percent = rollup.qod_percent
        self.mean_response_time = rollup.mean_response_time
        self.counters = rollup.counters
        #: Lifetime per-shard routing tallies (balance inspection).
        self.query_counts = list(portal.query_counts)
        self.update_counts = list(portal.update_counts)
        self.rebalances = portal.rebalances
        self.keys_migrated = portal.keys_migrated
        self.fanouts_resolved = portal.planner.fanouts_resolved
        self.invariants_checked = invariants_checked

    def digest(self) -> dict[str, typing.Any]:
        """Everything the determinism contract covers, full precision.

        Two runs are *the same run* iff their digests are equal — the
        byte-identity test serialises this across worker counts and
        repeated seeds.
        """
        return {
            "n_shards": self.n_shards,
            "weights": sorted(self.weights.items()),
            "total_max": self.total_max,
            "total_gained": self.total_gained,
            "mean_response_time": self.mean_response_time,
            "counters": sorted(self.counters.items()),
            "query_counts": self.query_counts,
            "update_counts": self.update_counts,
            "rebalances": self.rebalances,
            "keys_migrated": self.keys_migrated,
            "fanouts_resolved": self.fanouts_resolved,
        }

    def __repr__(self) -> str:
        return (f"<ShardedResult shards={self.n_shards} "
                f"Q%={self.total_percent:.3f} "
                f"rebalances={self.rebalances}>")


def run_sharded_simulation(n_shards: int,
                           scheduler_factory: typing.Callable[[], Scheduler],
                           trace: Trace,
                           qc_source: QCSource,
                           *,
                           master_seed: int = 0,
                           drain_ms: float = 30_000.0,
                           replicas_per_shard: int = 1,
                           router_factory: typing.Callable[
                               [], "Router"] | None = None,
                           server_config: ServerConfig | None = None,
                           failover_retries: int = 6,
                           failover_backoff_ms: float = 50.0,
                           durability: DurabilityConfig | None = None,
                           invariants: bool = False,
                           telemetry: "TelemetryKnob" = None,
                           health: "HealthConfig | None" = None,
                           admission_factory: typing.Callable[
                               [], AdmissionPolicy] | None = None,
                           base_weight: int = 4,
                           rebalance: RebalanceConfig | None = None,
                           ) -> ShardedResult:
    """Replay ``trace`` against ``n_shards`` shard portals.

    The update stream is **split** at trace level against the initial
    ring (:func:`repro.workload.sharding.split_update_streams`) and fed
    from one source process per shard; queries flow through the shard
    planner (owner routing or scatter-gather).  Contracts are drawn from
    the same ``qc.sampler`` stream as every other runner, in query
    arrival order, so sharded results are comparable with
    :func:`repro.cluster.run_cluster_simulation` on the same trace —
    and a 1-shard run is the replicated portal plus a ring lookup.

    ``rebalance`` arms the hot-key controller; ``invariants`` arms the
    conservation monitor, whose ``shard_cutover`` law additionally
    audits every migration (updates buffered == updates replayed).
    """
    restart_txn_ids()
    env = Environment()
    streams = StreamRegistry(master_seed)
    monitor = InvariantMonitor(lambda: env.now) if invariants else None
    portal = ShardedPortal(env, n_shards, scheduler_factory, streams,
                           keys=sorted(trace.stocks),
                           replicas_per_shard=replicas_per_shard,
                           router_factory=router_factory,
                           server_config=server_config,
                           failover_retries=failover_retries,
                           failover_backoff_ms=failover_backoff_ms,
                           durability=durability, monitor=monitor,
                           telemetry=telemetry, health=health,
                           admission_factory=admission_factory,
                           base_weight=base_weight, rebalance=rebalance)
    qc_rng = streams.stream("qc.sampler")
    update_streams = split_update_streams(trace, portal.owner_of, n_shards)

    def submit_query(_arrival_ms: float, items: tuple[str, ...],
                     exec_ms: float) -> None:
        contract = qc_source.sample(qc_rng, env.now)
        portal.submit_query(Query(env.now, exec_ms, items, contract))

    def route_update(_arrival_ms: float, item: str, exec_ms: float,
                     value: float) -> None:
        portal.route_update(env.now, exec_ms, item, value)

    env.process(drive(env, replay_rows(QueryRecord, trace.queries),
                      submit_query), name="shard-query-source")
    for shard, rows in enumerate(update_streams):
        env.process(drive(env, rows, route_update),
                    name=f"shard-update-source-{shard}")
    horizon = trace.duration_ms + max(0.0, drain_ms)
    env.run(until=horizon)
    portal.finalize()
    if isinstance(env.telemetry, KernelProbe):
        env.telemetry.flush(env.fast_forwards)
    if monitor is not None:
        monitor.verify_complete(portal.rollup().total_gained)
    return ShardedResult(portal, horizon,
                         invariants_checked=monitor is not None)


# ----------------------------------------------------------------------
# Sweeps (worker-side task functions are module-level: picklable)
# ----------------------------------------------------------------------
def _scaleout_cell(n_shards: int, policy: str, spec: WorkloadSpec,
                   workload_seed: int, run_seed: int, qc_source: QCSource,
                   replicas_per_shard: int,
                   rebalance: RebalanceConfig | None,
                   invariants: bool) -> ShardedResult:
    """One sweep cell: regenerate the trace, replay it sharded."""
    trace = StockWorkloadGenerator(spec, master_seed=workload_seed).generate()
    return run_sharded_simulation(
        n_shards, lambda: make_scheduler(policy), trace, qc_source,
        master_seed=run_seed, replicas_per_shard=replicas_per_shard,
        rebalance=rebalance, invariants=invariants)


def _result_row(label: str, result: ShardedResult) -> dict[str, typing.Any]:
    return {
        "cell": label,
        "shards": result.n_shards,
        "total%": result.total_percent,
        "QOS%": result.qos_percent,
        "QOD%": result.qod_percent,
        "rt_ms": result.mean_response_time,
        "fanouts": result.fanouts_resolved,
        "rebalances": result.rebalances,
        "keys_moved": result.keys_migrated,
    }


def shard_sweep(config: ExperimentConfig,
                shard_counts: typing.Sequence[int] = SHARD_COUNTS,
                policy: str = "QUTS",
                qc_factory: QCFactory | None = None,
                replicas_per_shard: int = 1,
                rebalance: RebalanceConfig | None = None,
                spec: WorkloadSpec | None = None,
                invariants: bool = False,
                ) -> list[dict[str, typing.Any]]:
    """Profit vs shard count on one fixed trace (fixed aggregate load).

    Every cell replays the *same* workload seed, so the only variable is
    how many shards divide it — common random numbers, as in
    :func:`repro.experiments.replication.compare_policies`.
    """
    base_spec = spec or config.spec()
    qc = qc_factory or QCFactory.balanced()
    results = run_tasks(
        [Task(_scaleout_cell,
              (n, policy, base_spec, config.workload_seed,
               config.run_seed, qc, replicas_per_shard, rebalance,
               invariants),
              key=f"shards={n}")
         for n in shard_counts],
        config.workers)
    return [_result_row(f"shards={n}", result)
            for n, result in zip(shard_counts, results)]


def skew_sweep(config: ExperimentConfig,
               n_shards: int = 4,
               policy: str = "QUTS",
               qc_factory: QCFactory | None = None,
               rebalance: RebalanceConfig = SKEW_REBALANCE,
               spec: WorkloadSpec | None = None,
               invariants: bool = False,
               ) -> list[dict[str, typing.Any]]:
    """Static vs rebalancing ring under the Zipf hot-key tier.

    Both cells replay the identical skewed trace with identical seeds;
    the only difference is whether the rebalance controller runs."""
    skewed = hot_key_spec(spec or config.spec())
    qc = qc_factory or QCFactory.balanced()
    results = run_tasks(
        [Task(_scaleout_cell,
              (n_shards, policy, skewed, config.workload_seed,
               config.run_seed, qc, 1, plan, invariants),
              key=f"ring={label}")
         for label, plan in (("static", None), ("rebalancing", rebalance))],
        config.workers)
    return [_result_row(f"ring={label}", result)
            for (label, _), result in zip(
                (("static", None), ("rebalancing", rebalance)), results)]


# ----------------------------------------------------------------------
# CLI: ``repro shard`` owns its own grammar
# ----------------------------------------------------------------------
def main(argv: typing.Sequence[str] | None = None) -> int:
    """``repro shard``: run the scale-out sweeps and print the tables."""
    from .report import format_table

    parser = argparse.ArgumentParser(
        prog="repro shard",
        description="Sharded scale-out: profit vs shard count, plus "
                    "static-vs-rebalancing rings under Zipf hot-key "
                    "skew")
    parser.add_argument("--scale", default=None,
                        choices=("smoke", "standard", "full"),
                        help="workload scale (default: $REPRO_SCALE or "
                             "'standard')")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: $REPRO_WORKERS "
                             "or 1); results are bit-identical for any "
                             "value")
    parser.add_argument("--policy", default="QUTS",
                        help="scheduling policy inside every replica")
    parser.add_argument("--shards", default="1,2,4,8",
                        help="comma-separated shard counts for the "
                             "scale-out curve")
    parser.add_argument("--replicas", type=int, default=1,
                        help="replicas per shard")
    parser.add_argument("--skew", action="store_true",
                        help="also run the Zipf hot-key tier "
                             "(static vs rebalancing ring)")
    parser.add_argument("--invariants", action="store_true",
                        help="arm the conservation monitor on every cell")
    args = parser.parse_args(
        list(sys.argv[1:] if argv is None else argv))
    config = ExperimentConfig.from_env(args.scale, workers=args.workers)
    if config.workers > 1:
        from repro.parallel import warm_pool
        warm_pool(config.workers)
    shard_counts = [int(part) for part in args.shards.split(",") if part]
    rows = shard_sweep(config, shard_counts, policy=args.policy,
                       replicas_per_shard=args.replicas,
                       invariants=args.invariants)
    print(format_table(rows,
                       title=f"Scale-out - profit vs shard count "
                             f"({args.policy}, {config.scale} scale, "
                             f"fixed aggregate load)"))
    if args.skew:
        print()
        rows = skew_sweep(config, policy=args.policy,
                          invariants=args.invariants)
        print(format_table(rows,
                           title="Hot-key skew - static vs rebalancing "
                                 "ring (Zipf tier, 4 shards)"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
