"""Replay a trace against a replicated portal, optionally under faults."""

from __future__ import annotations

import typing

from repro.db.admission import AdmissionPolicy
from repro.db.server import ServerConfig
from repro.db.transactions import Query, restart_txn_ids
from repro.db.wal import DurabilityConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.scheduling.base import Scheduler
from repro.sim import Environment
from repro.sim.invariants import InvariantMonitor
from repro.sim.rng import StreamRegistry
from repro.telemetry.hooks import KernelProbe, TelemetryKnob
from repro.workload.traces import (QueryRecord, Trace, UpdateRecord, drive,
                                   replay_rows)

from .health import HealthConfig
from .portal import ReplicatedPortal
from .routers import Router

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import QCSource


class ClusterResult:
    """Cluster-level outcome plus the per-replica detail."""

    def __init__(self, portal: ReplicatedPortal, duration: float,
                 invariants_checked: bool = False) -> None:
        self.duration = duration
        self.n_replicas = len(portal.replicas)
        self.router_name = portal.router.name
        rollup = portal.rollup()
        self.total_percent = rollup.total_percent
        self.qos_percent = rollup.qos_percent
        self.qod_percent = rollup.qod_percent
        self.mean_response_time = rollup.mean_response_time
        self.counters = rollup.counters
        self.routed_counts = list(portal.routed_counts)
        self.replica_ledgers = [r.ledger for r in portal.replicas]
        #: Robustness telemetry (all zero on fault-free runs).
        self.fault_counters = portal.fault_counters.as_dict()
        self.downtime_ms = portal.total_downtime_ms
        self.crash_counts = [r.crash_count for r in portal.replicas]
        #: Wall-clock ms with at least one replica down (interval union —
        #: concurrent outages are not double-counted).
        self.downtime_union_ms = portal.downtime_union_ms()
        #: Durability telemetry: one record per crash episode, with the
        #: episode's RPO (#uu lost from the unflushed WAL tail) and RTO
        #: (ms from recovery to a drained re-sync backlog).
        self.incidents: list[dict] = [
            i.as_dict() for i in portal.incidents]
        #: True when an invariant monitor watched (and passed) this run.
        self.invariants_checked = invariants_checked
        #: The resolved telemetry session shared by every replica and
        #: the portal (None when telemetry was off) — its tracer holds
        #: ``replica0..N/...`` and ``portal/...`` tracks.
        self.telemetry = portal.telemetry
        #: Final per-replica database digests (key, value, master, #uu)
        #: — what recovery parity is measured against.
        self.state_digests = [r.server.database.state_digest()
                              for r in portal.replicas]

    @property
    def availability(self) -> float:
        """Fraction of wall-clock time the portal could serve queries.

        Computed from the *union* of the outage intervals: two replicas
        down over the same window cost the window once, not twice
        (summing per-replica downtime over-counts exactly when outages
        overlap — a portal-wide crash would otherwise look ``n`` times
        worse than it is).
        """
        if self.duration <= 0:
            return 1.0
        return max(0.0, 1.0 - self.downtime_union_ms / self.duration)

    @property
    def rpo_uu(self) -> int:
        """Worst per-incident RPO across the run (#uu lost), 0 if none."""
        return max((i["rpo_uu"] for i in self.incidents), default=0)

    @property
    def rto_ms_max(self) -> float | None:
        """Worst per-incident RTO (ms); None when an incident never
        caught up before the run ended (or there were no incidents)."""
        rtos = [i["rto_ms"] for i in self.incidents]
        if not rtos or any(r is None for r in rtos):
            return None
        return max(rtos)

    def __repr__(self) -> str:
        return (f"<ClusterResult n={self.n_replicas} "
                f"router={self.router_name} "
                f"Q%={self.total_percent:.3f} "
                f"avail={self.availability:.3f}>")


def run_cluster_simulation(n_replicas: int,
                           scheduler_factory: typing.Callable[[], Scheduler],
                           trace: Trace,
                           qc_source: "QCSource",
                           *,
                           router: Router | None = None,
                           master_seed: int = 0,
                           drain_ms: float = 30_000.0,
                           server_config: ServerConfig | None = None,
                           fault_plan: FaultPlan | None = None,
                           failover_retries: int = 6,
                           failover_backoff_ms: float = 50.0,
                           durability: DurabilityConfig | None = None,
                           invariants: bool = False,
                           telemetry: "TelemetryKnob" = None,
                           health: HealthConfig | None = None,
                           admission_factory: typing.Callable[
                               [], AdmissionPolicy] | None = None,
                           ) -> ClusterResult:
    """Replay ``trace`` against ``n_replicas`` servers behind ``router``.

    The update stream is broadcast to every replica; queries are routed.
    Contracts are drawn exactly as in the single-server runner, so
    cluster results are directly comparable with
    :func:`repro.experiments.run_simulation` on the same trace.

    ``fault_plan`` schedules failures (replica crashes, portal-wide
    outages, update-source stalls, query spikes) via a
    :class:`~repro.faults.FaultInjector`.
    A ``FaultPlan.none()`` plan is bit-identical to no plan at all: the
    injector draws nothing and perturbs no stream, so fault-free runs
    reproduce the fault-less results exactly.

    ``durability`` attaches a write-ahead log + periodic checkpoints to
    every replica (crashes then wipe main memory; recovery restores the
    last checkpoint and replays the durable WAL tail).  ``invariants``
    attaches an :class:`~repro.sim.invariants.InvariantMonitor` that
    audits every transaction lifecycle event during the run and verifies
    the conservation laws at the end — it observes only, so an audited
    run is bit-identical to an unaudited one.

    ``health`` arms the gray-failure defense layer: a failure detector
    plus one circuit breaker per replica, consulted by every router next
    to the up/down bit.  ``admission_factory`` builds one admission
    policy per replica (e.g. ``BrownoutAdmission`` to serve degraded
    answers under overload instead of shedding).

    A trace stand-in whose arrival times are not non-decreasing raises
    :class:`ValueError` (see :func:`repro.workload.traces.replay_rows`).
    """
    restart_txn_ids()
    env = Environment()
    streams = StreamRegistry(master_seed)
    monitor = InvariantMonitor(lambda: env.now) if invariants else None
    portal = ReplicatedPortal(env, n_replicas, scheduler_factory, streams,
                              router=router, server_config=server_config,
                              failover_retries=failover_retries,
                              failover_backoff_ms=failover_backoff_ms,
                              durability=durability, monitor=monitor,
                              telemetry=telemetry, health=health,
                              admission_factory=admission_factory)
    injector = (FaultInjector(env, fault_plan, portal)
                if fault_plan is not None else None)
    qc_rng = streams.stream("qc.sampler")

    def submit_query(_arrival_ms: float, items: tuple[str, ...],
                     exec_ms: float) -> None:
        contract = qc_source.sample(qc_rng, env.now)
        portal.submit_query(Query(env.now, exec_ms, items, contract))
        if injector is not None:
            # Load spike: the flash crowd repeats the trace's demand.
            for _ in range(injector.extra_query_copies()):
                portal.submit_query(Query(env.now, exec_ms, items, contract))

    def broadcast_update(_arrival_ms: float, item: str, exec_ms: float,
                         value: float) -> None:
        portal.broadcast_update(env.now, exec_ms, item, value)

    # A stalled update source parks in the gate; on resume the backlog
    # (this and any overdue updates) bursts out at once.
    gate = injector.update_gate if injector is not None else None
    env.process(drive(env, replay_rows(QueryRecord, trace.queries),
                      submit_query), name="cluster-query-source")
    env.process(drive(env, replay_rows(UpdateRecord, trace.updates),
                      broadcast_update, gate), name="cluster-update-source")
    horizon = trace.duration_ms + max(0.0, drain_ms)
    env.run(until=horizon)
    portal.finalize()
    if isinstance(env.telemetry, KernelProbe):
        env.telemetry.flush(env.fast_forwards)
    if monitor is not None:
        monitor.verify_complete(portal.rollup().total_gained)
    return ClusterResult(portal, horizon,
                         invariants_checked=monitor is not None)
