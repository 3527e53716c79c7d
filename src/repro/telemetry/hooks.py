"""Instrumentation points: probes the simulator's layers call into.

A :class:`TelemetrySession` bundles one :class:`~.tracer.Tracer` and one
:class:`~.registry.MetricsRegistry` for a run, and hands out *probes* —
small ``__slots__`` objects bound to a scope (``"server"``,
``"replica0"``, ``"portal"``, ``"kernel"``) that translate simulator
happenings into trace records and registry updates.

The calling convention everywhere is::

    if self._probe is not None:
        self._probe.commit(now, txn)

so a run without telemetry pays exactly one pointer comparison per
instrumentation point (and none at all in the kernel event loop, which
switches to the instrumented variant only when a probe is attached).
Probes never mutate simulator state and never consume randomness:
results are byte-identical with telemetry on or off.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event

from . import events as ev
from .registry import MetricsRegistry, ScopedRegistry
from .tracer import TelemetryConfig, Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.transactions import Query, Transaction


class TelemetrySession:
    """One run's telemetry: the tracer, the registry, and probe factory."""

    __slots__ = ("config", "tracer", "registry")

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.tracer = Tracer.from_config(self.config)
        self.registry = MetricsRegistry()

    @classmethod
    def from_knob(cls, telemetry: "TelemetryKnob",
                  ) -> "TelemetrySession | None":
        """Coerce the user-facing ``telemetry=`` knob into a session.

        Accepts ``None`` (off), a :class:`TelemetryConfig`, or an
        existing session (shared across replicas / reused by the caller).
        """
        if telemetry is None:
            return None
        if isinstance(telemetry, TelemetryConfig):
            return cls(telemetry)
        if isinstance(telemetry, TelemetrySession):
            return telemetry
        raise TypeError(
            f"telemetry must be None, TelemetryConfig, or "
            f"TelemetrySession, got {telemetry!r}")

    def __repr__(self) -> str:
        return f"<TelemetrySession {self.tracer!r}>"

    # ------------------------------------------------------------------
    # Probe factory
    # ------------------------------------------------------------------
    def server_probe(self, scope: str = "server") -> "ServerProbe":
        return ServerProbe(self.tracer, self.registry.scoped(scope), scope)

    def scheduler_probe(self, scope: str = "server") -> "SchedulerProbe":
        return SchedulerProbe(self.tracer, self.registry.scoped(scope),
                              scope)

    def cluster_probe(self, scope: str = "portal") -> "ClusterProbe":
        return ClusterProbe(self.tracer, self.registry.scoped(scope),
                            scope)

    def kernel_probe(self, scope: str = "kernel") -> "KernelProbe":
        return KernelProbe(self.registry.scoped(scope))

    def shard_probe(self, scope: str = "shard") -> "ShardProbe":
        return ShardProbe(self.tracer, self.registry.scoped(scope), scope)


#: What the ``telemetry=`` keyword accepts throughout the stack.
TelemetryKnob = typing.Union[None, TelemetryConfig, TelemetrySession]


def _txn_kind(txn: "Transaction") -> str:
    return "query" if txn.is_query else "update"


class ServerProbe:
    """Transaction lifecycle + CPU occupancy for one database server."""

    __slots__ = ("tracer", "metrics", "scope", "_lifecycle", "_cpu",
                 "_counters", "_h_response", "_h_staleness", "_h_slice",
                 "_gate_txn", "_gate_sched")

    def __init__(self, tracer: Tracer, metrics: ScopedRegistry,
                 scope: str) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.scope = scope
        self._lifecycle = f"{scope}/lifecycle"
        self._cpu = f"{scope}/cpu"
        #: Bound ``Counter.increment`` methods keyed by event name.  The
        #: lifecycle path fires per transaction per transition; caching
        #: skips the f-string build, the registry dict probe, and the
        #: attribute lookup on the hot path.
        self._counters: dict[str, typing.Any] = {}
        # Histogram handles, lazily resolved like the counters above.
        self._h_response = None
        self._h_staleness = None
        self._h_slice = None
        # Bound per-category gates (see Tracer.gater): the lifecycle
        # hooks fire several times per transaction, so the membership
        # and stride lookups are resolved once here.
        self._gate_txn = tracer.gater(ev.CAT_TXN)
        self._gate_sched = tracer.gater(ev.CAT_SCHED)

    # -- lifecycle instants --------------------------------------------
    def _count(self, name: str) -> None:
        """Exact lifecycle counters — never sampled (they must match
        the ledger bit-for-bit; only trace *records* are sampled)."""
        increment = self._counters.get(name)
        if increment is None:
            increment = self.metrics.counter(f"txn/{name}").increment
            self._counters[name] = increment
        increment()

    def _mark(self, now: float, name: str, txn: "Transaction",
              args: dict[str, typing.Any] | None = None) -> None:
        if self._gate_txn():
            self.tracer.emit_instant(now, ev.CAT_TXN, name,
                                     self._lifecycle, txn.txn_id, args)
        # _count() inlined — this is the hottest lifecycle path.
        increment = self._counters.get(name)
        if increment is None:
            increment = self.metrics.counter(f"txn/{name}").increment
            self._counters[name] = increment
        increment()

    def arrive(self, now: float, txn: "Transaction") -> None:
        if self._gate_txn():
            self.tracer.emit_instant(now, ev.CAT_TXN, ev.TXN_ARRIVE,
                                     self._lifecycle, txn.txn_id,
                                     {"kind": _txn_kind(txn),
                                      "exec_ms": txn.exec_time})
        self._count(ev.TXN_ARRIVE)

    def queued(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_QUEUE, txn)

    def reject(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_REJECT, txn)

    def running(self, now: float, txn: "Transaction",
                resumed: bool) -> None:
        self._mark(now, ev.TXN_RESUME if resumed else ev.TXN_START, txn)

    def preempt(self, now: float, txn: "Transaction",
                by: "Transaction") -> None:
        if self._gate_txn():
            self.tracer.emit_instant(now, ev.CAT_TXN, ev.TXN_PREEMPT,
                                     self._lifecycle, txn.txn_id,
                                     {"by": by.txn_id})
        self._count(ev.TXN_PREEMPT)
        if self._gate_sched():
            self.tracer.emit_instant(now, ev.CAT_SCHED,
                                     ev.SCHED_PREEMPTION,
                                     f"{self.scope}/sched", txn.txn_id,
                                     {"by": by.txn_id})

    def suspend(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_SUSPEND, txn)

    def restart(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_RESTART, txn)

    def commit(self, now: float, txn: "Transaction") -> None:
        # Histograms are exact (never sampled); the args dict is only
        # built when the stride gate keeps this record.
        if txn.is_query:
            query = typing.cast("Query", txn)
            hist = self._h_response
            if hist is None:
                hist = self._h_response = self.metrics.histogram(
                    "txn/response_time_ms")
            hist.observe(query.response_time())
            if query.staleness is not None:
                hist = self._h_staleness
                if hist is None:
                    hist = self._h_staleness = self.metrics.histogram(
                        "txn/staleness")
                hist.observe(query.staleness)
        if self._gate_txn():
            tracer = self.tracer
            args: dict[str, typing.Any] = {"kind": _txn_kind(txn)}
            if txn.is_query:
                query = typing.cast("Query", txn)
                args["rt_ms"] = query.response_time()
                args["staleness"] = query.staleness
                args["profit"] = query.total_profit
            tracer.emit_instant(now, ev.CAT_TXN, ev.TXN_COMMIT,
                                self._lifecycle, txn.txn_id, args)
        self._count(ev.TXN_COMMIT)

    def expire(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_EXPIRE, txn)

    def supersede(self, now: float, txn: "Transaction",
                  by: "Transaction") -> None:
        if self._gate_txn():
            self.tracer.emit_instant(now, ev.CAT_TXN, ev.TXN_SUPERSEDE,
                                     self._lifecycle, txn.txn_id,
                                     {"by": by.txn_id})
        self._count(ev.TXN_SUPERSEDE)

    def unfinished(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.TXN_UNFINISHED, txn)

    # -- CPU occupancy spans -------------------------------------------
    def cpu_slice(self, start: float, end: float,
                  txn: "Transaction") -> None:
        if end <= start:
            return  # zero-length slice (e.g. interrupted at dispatch)
        if self._gate_txn():
            self.tracer.emit_span(start, end - start, ev.CAT_TXN,
                                  _txn_kind(txn), self._cpu, txn.txn_id,
                                  {"id": txn.txn_id})
        hist = self._h_slice
        if hist is None:
            hist = self._h_slice = self.metrics.histogram("cpu/slice_ms")
        hist.observe(end - start)

    def overhead(self, start: float, end: float) -> None:
        if end <= start:
            return
        self.tracer.span(start, end - start, ev.CAT_SCHED, "class_switch",
                         self._cpu)
        self.metrics.counter("cpu/class_switches").increment()


class SchedulerProbe:
    """Scheduler internals: slot draws, ρ updates, queue depths."""

    __slots__ = ("tracer", "metrics", "scope", "_sched", "_queues",
                 "_draws", "_switches", "_rho_gauge", "_depth_gauges",
                 "_gate_sched", "_sched_on")

    def __init__(self, tracer: Tracer, metrics: ScopedRegistry,
                 scope: str) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.scope = scope
        self._sched = f"{scope}/sched"
        self._queues = f"{scope}/queues"
        # Metric handles, resolved lazily on first use (so an idle probe
        # registers nothing) and cached — the depth/ρ paths fire per
        # scheduling decision and the registry lookup shows up in
        # profiles.
        self._draws = None
        self._switches = None
        self._rho_gauge = None
        self._depth_gauges: tuple[typing.Any, typing.Any] | None = None
        # Bound gate + membership flag, resolved once (see Tracer.gater).
        self._gate_sched = tracer.gater(ev.CAT_SCHED)
        self._sched_on = tracer.enabled_for(ev.CAT_SCHED)

    def quantum_draw(self, now: float, xi: float, state: str) -> None:
        if self._gate_sched():
            self.tracer.emit_instant(now, ev.CAT_SCHED,
                                     ev.SCHED_QUANTUM_DRAW, self._sched,
                                     -1, {"xi": xi, "state": state})
        counter = self._draws
        if counter is None:
            counter = self._draws = self.metrics.counter(
                "sched/quantum_draws")
        counter.increment()

    def queue_switch(self, now: float, state: str) -> None:
        if self._gate_sched():
            self.tracer.emit_instant(now, ev.CAT_SCHED,
                                     ev.SCHED_QUEUE_SWITCH, self._sched,
                                     -1, {"state": state})
        counter = self._switches
        if counter is None:
            counter = self._switches = self.metrics.counter(
                "sched/queue_switches")
        counter.increment()

    def rho_update(self, now: float, rho: float, qos_max: float,
                   qod_max: float) -> None:
        tracer = self.tracer
        # One gate for the ρ instant + counter pair: they describe the
        # same observation, so sampling keeps or drops them together.
        # The gauge time series rides the same stride — it is a
        # monitoring view, not a ledger, so decimating it with the
        # trace records is exactly what ``sample_rate`` promises
        # (ledger counters and histograms stay exact).  With the
        # category disabled outright the gauge keeps every point, as
        # it always has.
        if self._gate_sched():
            tracer.emit_instant(now, ev.CAT_SCHED, ev.SCHED_RHO_UPDATE,
                                self._sched, -1,
                                {"rho": rho, "qos_max": qos_max,
                                 "qod_max": qod_max})
            tracer.emit_counter(now, ev.CAT_SCHED, "rho", self._sched,
                                rho)
        elif self._sched_on:
            return  # sampled out: skip the gauge point on this stride
        gauge = self._rho_gauge
        if gauge is None:
            gauge = self._rho_gauge = self.metrics.gauge("sched/rho")
        gauge.record(now, rho)

    def wants_depths(self) -> bool:
        """One stride draw for the next queue-depth snapshot.

        False means this snapshot is sampled out and the caller can skip
        computing the depths entirely — the scheduler's ``len()`` sums
        fire per decision, so skipping them is part of the sampling win.
        A True consumes the stride slot; follow it with exactly one
        :meth:`record_depths`.
        """
        return self._gate_sched() or not self._sched_on

    def record_depths(self, now: float, queries: int,
                      updates: int) -> None:
        """Emit one pre-gated depth snapshot (see :meth:`wants_depths`).

        The two counters are a single snapshot of the scheduler's
        queues, kept or dropped together; the gauge time series rides
        the same stride (decimation rule as :meth:`rho_update`).
        """
        if self._sched_on:
            tracer = self.tracer
            tracer.emit_counter(now, ev.CAT_SCHED, "queue_depth_queries",
                                self._queues, queries)
            tracer.emit_counter(now, ev.CAT_SCHED, "queue_depth_updates",
                                self._queues, updates)
        gauges = self._depth_gauges
        if gauges is None:
            gauges = self._depth_gauges = (
                self.metrics.gauge("sched/queue_depth_queries").record,
                self.metrics.gauge("sched/queue_depth_updates").record)
        gauges[0](now, queries)
        gauges[1](now, updates)


class ClusterProbe:
    """Portal-level incidents: crashes, recoveries, failover, replay."""

    __slots__ = ("tracer", "metrics", "scope", "_track")

    def __init__(self, tracer: Tracer, metrics: ScopedRegistry,
                 scope: str) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.scope = scope
        self._track = f"{scope}/cluster"

    def _mark(self, now: float, name: str, txn_id: int = -1,
              args: dict[str, typing.Any] | None = None) -> None:
        self.tracer.instant(now, ev.CAT_CLUSTER, name, self._track,
                            txn_id, args)
        self.metrics.counter(f"cluster/{name}").increment()

    def crash(self, now: float, replica: int | None) -> None:
        self._mark(now, ev.CLUSTER_CRASH, -1, {"replica": replica})

    def recover(self, now: float, replica: int | None,
                resynced: int) -> None:
        self._mark(now, ev.CLUSTER_RECOVER, -1,
                   {"replica": replica, "resynced": resynced})

    def failover(self, now: float, txn: "Transaction") -> None:
        self._mark(now, ev.CLUSTER_FAILOVER, txn.txn_id)

    def adopt(self, now: float, txn: "Transaction", replica: int) -> None:
        self._mark(now, ev.CLUSTER_ADOPT, txn.txn_id,
                   {"replica": replica})

    def lost(self, now: float, txn: "Transaction") -> None:
        """A transaction died with a crash (the ``lost`` txn terminal
        lives on the cluster track: no single server owns it)."""
        self.tracer.instant(now, ev.CAT_TXN, ev.TXN_LOST, self._track,
                            txn.txn_id, {"kind": _txn_kind(txn)})
        self.metrics.counter(f"txn/{ev.TXN_LOST}").increment()

    def replay(self, now: float, replica: int, records: int) -> None:
        self._mark(now, ev.CLUSTER_REPLAY, -1,
                   {"replica": replica, "records": records})

    def checkpoint(self, now: float, replica: int) -> None:
        self._mark(now, ev.CLUSTER_CHECKPOINT, -1, {"replica": replica})

    # -- gray failures -------------------------------------------------
    def slow(self, now: float, replica: int, factor: float) -> None:
        self._mark(now, ev.CLUSTER_SLOW, -1,
                   {"replica": replica, "factor": factor})

    def gap(self, now: float, replica: int, missed: int,
            out_of_order: bool) -> None:
        self._mark(now, ev.CLUSTER_GAP, -1,
                   {"replica": replica, "missed": missed,
                    "out_of_order": out_of_order})

    def window(self, now: float, replica: int, mode: str) -> None:
        self._mark(now, ev.CLUSTER_WINDOW, -1,
                   {"replica": replica, "mode": mode})

    def heal(self, now: float, replica: int, mode: str,
             resynced: int) -> None:
        self._mark(now, ev.CLUSTER_HEAL, -1,
                   {"replica": replica, "mode": mode,
                    "resynced": resynced})

    def breaker(self, now: float, replica: int, state: str) -> None:
        self._mark(now, ev.CLUSTER_BREAKER, -1,
                   {"replica": replica, "state": state})

    def corrupt(self, now: float, replica: int, records: int) -> None:
        self._mark(now, ev.CLUSTER_WAL_CORRUPT, -1,
                   {"replica": replica, "records": records})


class ShardProbe:
    """Shard-layer happenings: routing, fan-out chains, migrations.

    Point events land on the ``<scope>/planner`` lane (routing and
    rebalancing decisions) while each resolved fan-out additionally
    emits a *span* covering submit → merge on ``<scope>/fanout`` — in
    Perfetto the fan-out lane reads as a chain of scatter-gather
    windows, one per multi-shard query, with the sub-query lifecycle
    events nested on the per-shard ``shardN/replicaM`` tracks below.
    """

    __slots__ = ("tracer", "metrics", "scope", "_track", "_fanout_track")

    def __init__(self, tracer: Tracer, metrics: ScopedRegistry,
                 scope: str) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.scope = scope
        self._track = f"{scope}/planner"
        self._fanout_track = f"{scope}/fanout"

    def _mark(self, now: float, name: str, txn_id: int = -1,
              args: dict[str, typing.Any] | None = None) -> None:
        self.tracer.instant(now, ev.CAT_SHARD, name, self._track,
                            txn_id, args)
        self.metrics.counter(f"shard/{name}").increment()

    def route(self, now: float, txn: "Transaction", shard: int) -> None:
        self._mark(now, ev.SHARD_ROUTE, txn.txn_id, {"shard": shard})

    def fanout(self, now: float, txn: "Transaction",
               shards: list[int]) -> None:
        self._mark(now, ev.SHARD_FANOUT, txn.txn_id,
                   {"shards": shards, "width": len(shards)})

    def merge(self, now: float, txn: "Transaction", submitted: float,
              committed: int, failed: int, degraded: bool) -> None:
        self._mark(now, ev.SHARD_MERGE, txn.txn_id,
                   {"committed": committed, "failed": failed,
                    "degraded": degraded})
        self.tracer.span(submitted, now - submitted, ev.CAT_SHARD,
                         "fanout_window", self._fanout_track, txn.txn_id,
                         {"committed": committed, "failed": failed})

    def migrate_start(self, now: float, source: int, dest: int,
                      keys: int) -> None:
        self._mark(now, ev.SHARD_MIGRATE_START, -1,
                   {"source": source, "dest": dest, "keys": keys})

    def migrate_copy(self, now: float, source: int, dest: int,
                     items: int) -> None:
        self._mark(now, ev.SHARD_MIGRATE_COPY, -1,
                   {"source": source, "dest": dest, "items": items})

    def cutover(self, now: float, source: int, dest: int,
                replayed: int) -> None:
        self._mark(now, ev.SHARD_CUTOVER, -1,
                   {"source": source, "dest": dest, "replayed": replayed})

    def rebalance(self, now: float, hot: int, cold: int,
                  moved_keys: int) -> None:
        self._mark(now, ev.SHARD_REBALANCE, -1,
                   {"hot": hot, "cold": cold, "moved_keys": moved_keys})


class KernelProbe:
    """Per-kind event counts from the instrumented kernel loop.

    The loop calls :meth:`on_event` once per processed event; counts
    are keyed by event *class* (one dict operation per event — the kind
    name is a pure function of the class, so translating via
    :func:`event_kind` waits until :meth:`flush` folds the totals into
    the registry after the run).  Satisfies
    :class:`repro.sim.environment.EventObserver`.
    """

    __slots__ = ("metrics", "_by_class")

    def __init__(self, metrics: ScopedRegistry) -> None:
        self.metrics = metrics
        self._by_class: dict[type, int] = {}

    @property
    def counts(self) -> dict[str, int]:
        """Per-kind totals (classes sharing a kind name are summed)."""
        counts: dict[str, int] = {}
        for cls, count in self._by_class.items():
            kind = cls.__name__.lower()  # event_kind(), sans instance
            counts[kind] = counts.get(kind, 0) + count
        return counts

    def on_event(self, event: Event) -> None:
        by_class = self._by_class
        cls = type(event)
        by_class[cls] = by_class.get(cls, 0) + 1

    def flush(self) -> None:
        for kind, count in sorted(self.counts.items()):
            self.metrics.counter(f"events_{kind}").increment(count)
