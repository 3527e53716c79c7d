"""A replicated web-database portal (extension; cf. [17]).

``ReplicatedPortal`` runs ``n`` independent replicas inside one simulated
environment.  Each replica is a complete single-CPU
:class:`~repro.db.server.DatabaseServer` with its own database, lock
manager, scheduler, and profit ledger.  Updates are *broadcast*: every
replica receives its own copy of each update and applies (or supersedes)
it independently — the paper's data model, where sources push every
update to every replica.  Queries are *routed*: a
:class:`~repro.cluster.routers.Router` picks the replica that serves
each one, and that replica's staleness is what the query observes.

The portal is also where the cluster *degrades* instead of misbehaving
when a :class:`~repro.faults.FaultInjector` crashes replicas:

* a crashed replica stops receiving broadcasts and routed queries, and
  every transaction in flight on it is stranded (fail-stop);
* stranded **queries** enter the failover path: resubmission to a healthy
  replica, hedged (immediate, to the pre-computed backup) when the router
  provides one, otherwise with capped exponential-backoff retries.  A
  failed-over query keeps its original arrival time and lifetime
  deadline, so the crash's lost time is charged against its contract;
* stranded and missed **updates** are logged per replica and replayed on
  recovery — the replica rejoins *stale*, with the re-sync backlog
  visible to QoD-aware routers, and catches up by executing it;
* queries whose retries run out (or that are mid-retry when the run
  ends) are accounted as ``queries_lost_crash`` — their contracts stay in
  the ledger denominators, so crashes cost profit and never shrink the
  totals they are measured against.

The portal aggregates the per-replica ledgers into cluster-level profit
percentages comparable with single-server results.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.db.admission import AdmissionPolicy
from repro.db.database import Database
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, Transaction, TxnStatus, Update
from repro.db.wal import DurabilityConfig, WalRecord, WriteAheadLog
from repro.metrics.profit import ProfitLedger, ProfitRollup
from repro.scheduling.base import Scheduler
from repro.sim import Environment
from repro.sim.invariants import InvariantMonitor
from repro.sim.process import ProcessGenerator
from repro.sim.monitor import CounterSet
from repro.sim.rng import StreamRegistry
from repro.telemetry.hooks import TelemetryKnob, TelemetrySession

from .health import OPEN, CircuitBreaker, FailureDetector, HealthConfig
from .routers import (NoHealthyReplica, RoundRobinRouter, Router)

#: A missed broadcast, kept for recovery re-sync: (exec_ms, item, value).
_MissedUpdate = tuple[float, str, float]

#: A broadcast withheld by a lossy window: (seq, exec_ms, item, value).
_WithheldUpdate = tuple[int, float, str, float]

#: Test-only flag for the chaos harness's planted-bug meta-test: when
#: True, :meth:`ReplicatedPortal.heal_updates` "forgets" the newest
#: dropped update during re-sync — a deliberately broken heal the
#: ``gap_healed`` invariant must catch (and the shrinker must minimise).
#: Never set outside tests; see :mod:`repro.experiments.chaos`.
PLANTED_RESYNC_BUG = False


@dataclasses.dataclass
class RecoveryIncident:
    """One crash→recover→caught-up episode, with its durability cost.

    ``rpo_uu`` is the recovery point objective in the paper's QoD unit:
    applied updates whose durability was lost with the crash (the
    unflushed WAL tail) and had to be re-fetched from the source.
    ``rto_ms`` is the recovery time objective: recovery instant until the
    re-sync backlog fully drained (``None`` while not yet caught up, or
    when the run ended first).  Portal-scope incidents aggregate their
    member replicas' episodes.
    """

    scope: str  # "replica" | "portal"
    replica: int | None
    crashed_at: float
    recovered_at: float | None = None
    rpo_uu: int = 0
    wal_replayed: int = 0
    checkpoint_at: float | None = None
    resynced: int = 0
    resync_txns: list[Update] = dataclasses.field(
        default_factory=list, repr=False)
    members: "list[RecoveryIncident]" = dataclasses.field(
        default_factory=list, repr=False)

    def rto_ms(self) -> float | None:
        """Time from recovery to a fully drained re-sync backlog."""
        if self.recovered_at is None:
            return None
        if self.scope == "portal":
            rtos = [m.rto_ms() for m in self.members]
            if any(r is None for r in rtos):
                return None
            return max(rtos, default=0.0)
        if any(txn.status.live for txn in self.resync_txns):
            return None
        if not self.resync_txns:
            return 0.0
        return (max(typing.cast(float, txn.finish_time)
                    for txn in self.resync_txns) - self.recovered_at)

    def as_dict(self) -> dict[str, typing.Any]:
        if self.scope == "portal":
            rpo = max((m.rpo_uu for m in self.members), default=0)
            replayed = sum(m.wal_replayed for m in self.members)
            resynced = sum(m.resynced for m in self.members)
            marks = [m.checkpoint_at for m in self.members
                     if m.checkpoint_at is not None]
            checkpoint_at = max(marks) if marks else None
        else:
            rpo, replayed, resynced, checkpoint_at = (
                self.rpo_uu, self.wal_replayed, self.resynced,
                self.checkpoint_at)
        rto = self.rto_ms()
        return {
            "scope": self.scope,
            "replica": self.replica,
            "crashed_at_ms": self.crashed_at,
            "recovered_at_ms": self.recovered_at,
            "rpo_uu": rpo,
            "wal_replayed": replayed,
            "checkpoint_at_ms": checkpoint_at,
            "resynced": resynced,
            "rto_ms": rto,
            "caught_up": rto is not None,
        }


class ReplicaHandle:
    """One replica: server + ledger, with the cheap state routers read."""

    def __init__(self, index: int, server: DatabaseServer,
                 ledger: ProfitLedger,
                 wal: WriteAheadLog | None = None) -> None:
        self.index = index
        self.server = server
        self.ledger = ledger
        #: The replica's durable trail (None without a durability layer).
        self.wal = wal
        #: Health bit the routers consult; flipped by crash/recover.
        self.up = True
        #: Sim time of the current outage's start (None while up).
        self.crashed_at: float | None = None
        #: Number of crashes suffered so far.
        self.crash_count = 0
        #: Total time spent down (closed outages; finalize closes the
        #: last one if the run ends mid-outage).
        self.downtime_ms = 0.0
        #: Broadcasts missed while down, replayed on recovery.
        self.missed_updates: list[_MissedUpdate] = []
        #: The in-progress crash episode (None while up and caught up).
        self.open_incident: RecoveryIncident | None = None
        #: Newest broadcast sequence number this replica has seen (gap
        #: detection: a jump means the lossy link ate something).
        self.last_seq = 0
        #: Open lossy-window mode (None | "drop" | "delay" | "reorder").
        self.loss_mode: str | None = None
        #: Delivery delay while ``loss_mode == "delay"`` (ms).
        self.loss_delay_ms = 0.0
        #: Broadcasts withheld by a drop/reorder window, re-synced on heal.
        self.withheld: list[_WithheldUpdate] = []
        #: In-flight delayed deliveries: mutable
        #: ``[delivered, exec_ms, item, value, seq]`` entries (flag set
        #: when the timer or heal flush delivers, so the other side
        #: no-ops).
        self.delayed: list[list] = []
        #: Circuit breaker (None unless the portal has a HealthConfig).
        self.breaker: CircuitBreaker | None = None

    def pending_queries(self) -> int:
        return self.server.scheduler.pending_queries()

    def pending_updates(self) -> int:
        return self.server.scheduler.pending_updates()

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return (f"<ReplicaHandle #{self.index} {state} "
                f"q={self.pending_queries()} u={self.pending_updates()}>")


class ReplicatedPortal:
    """``n`` replicas behind a query router, sharing one clock."""

    def __init__(self, env: Environment, n_replicas: int,
                 scheduler_factory: typing.Callable[[], Scheduler],
                 streams: StreamRegistry,
                 router: Router | None = None,
                 server_config: ServerConfig | None = None,
                 failover_retries: int = 6,
                 failover_backoff_ms: float = 50.0,
                 durability: DurabilityConfig | None = None,
                 monitor: InvariantMonitor | None = None,
                 telemetry: TelemetryKnob = None,
                 health: HealthConfig | None = None,
                 admission_factory: typing.Callable[
                     [], AdmissionPolicy] | None = None,
                 telemetry_prefix: str = "") -> None:
        if n_replicas <= 0:
            raise ValueError("need at least one replica")
        if failover_retries < 0:
            raise ValueError(
                f"failover_retries must be >= 0, got {failover_retries}")
        if failover_backoff_ms <= 0:
            raise ValueError(
                f"failover_backoff_ms must be positive, "
                f"got {failover_backoff_ms}")
        self.env = env
        self.router = router or RoundRobinRouter()
        self.failover_retries = failover_retries
        self.failover_backoff_ms = failover_backoff_ms
        self.durability = durability
        self.monitor = monitor
        self.health = health
        #: One shared telemetry session across the portal and every
        #: replica: each replica traces under its own ``replicaN`` scope,
        #: cluster incidents under ``portal``.  ``telemetry_prefix``
        #: namespaces the scopes (e.g. ``shard2/``) so several portals
        #: can share one session without lane collisions.
        self.telemetry = TelemetrySession.from_knob(telemetry)
        self.telemetry_prefix = telemetry_prefix
        self._probe = (
            self.telemetry.cluster_probe(f"{telemetry_prefix}portal")
            if self.telemetry is not None else None)
        #: Jittered failover backoff: a dedicated named stream, so retry
        #: storms de-synchronise deterministically.  Stream *creation* is
        #: draw-free — a run that never retries is unaffected.
        self._retry_rng = streams.stream("cluster.retry-backoff")
        #: Reorder-window shuffles draw from their own named stream.
        self._reorder_rng = streams.stream("cluster.reorder")
        #: Global broadcast sequence number (gap detection's clock).
        self._broadcast_seq = 0
        self.replicas: list[ReplicaHandle] = []
        for index in range(n_replicas):
            ledger = ProfitLedger()
            wal = (WriteAheadLog(flush_every=durability.flush_every)
                   if durability is not None else None)
            server = DatabaseServer(
                env, Database(), scheduler_factory(), ledger,
                streams.spawn(f"replica-{index}"),
                config=server_config,
                admission=(admission_factory() if admission_factory
                           is not None else None),
                wal=wal, monitor=monitor,
                telemetry=self.telemetry,
                telemetry_scope=f"{telemetry_prefix}replica{index}")
            self.replicas.append(ReplicaHandle(index, server, ledger, wal))
        #: Gray-failure defenses (only with an attached HealthConfig):
        #: the suspicion detector plus one breaker per replica, all
        #: sharing a single named jitter stream.
        self.detector: FailureDetector | None = None
        if health is not None:
            self.detector = FailureDetector(n_replicas, health)
            breaker_rng = streams.stream("cluster.breaker")
            for handle in self.replicas:
                handle.breaker = CircuitBreaker(health, breaker_rng)
                handle.server.query_outcome_hook = functools.partial(
                    self._on_query_outcome, handle)
        if durability is not None:
            env.process(self._checkpointer(), name="checkpointer")
        #: Queries routed per replica (for balance inspection); failover
        #: resubmissions count as fresh routing decisions.
        self.routed_counts = [0] * n_replicas
        #: Portal-level robustness counters (crashes, failovers, ...),
        #: merged with the per-replica ledgers by :meth:`counters`.
        self.fault_counters = CounterSet()
        #: Queries currently waiting in a failover retry loop, mapped to
        #: the ledger holding their contract's maxima.
        self._retrying: dict[Query, ProfitLedger] = {}
        #: Pre-computed hedge backups (txn_id -> replica index), kept
        #: only when the router nominates backups (HedgedRouter).
        self._backups: dict[int, int] = {}
        #: Every crash episode, in crash order (replica + portal scope).
        self.incidents: list[RecoveryIncident] = []
        #: Closed replica outages as (start, end) spans; finalize closes
        #: the open ones.  The union of these is the portal's true
        #: unavailability (overlapping outages are not double-counted).
        self.outage_spans: list[tuple[float, float]] = []
        #: The in-progress portal-wide outage (None normally).
        self._portal_incident: RecoveryIncident | None = None

    def _observe(self, kind: str, txn: Transaction,
                 **data: typing.Any) -> None:
        """Feed a portal-level lifecycle event to the invariant monitor."""
        if self.monitor is not None:
            self.monitor.record(kind, txn_id=txn.txn_id, **data)

    def _checkpointer(self) -> ProcessGenerator:
        """Periodically checkpoint every live replica (durability only)."""
        interval = typing.cast(
            DurabilityConfig, self.durability).checkpoint_interval_ms
        while True:
            yield self.env.timeout(interval)
            for handle in self.replicas:
                if handle.up:
                    handle.server.take_checkpoint()
                    self.fault_counters.increment("checkpoints_taken")
                    if self._probe is not None:
                        self._probe.checkpoint(self.env.now, handle.index)

    def __repr__(self) -> str:
        up = sum(1 for r in self.replicas if r.up)
        return (f"<ReplicatedPortal n={len(self.replicas)} up={up} "
                f"router={self.router.name}>")

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> int:
        """Route and submit; returns the serving replica's index.

        When every replica is down the query is not bounced: its contract
        is priced into the intake ledger (replica 0's — the denominators
        must see every submitted contract exactly once) and it enters the
        failover retry loop, hoping for a recovery within its lifetime.
        Returns ``-1`` in that case.
        """
        return self._route(query, priced=True)

    def _route(self, query: Query, priced: bool) -> int:
        """The routing body of :meth:`submit_query` (``priced``) and
        :meth:`adopt_query`; neither public name calls the other."""
        try:
            index = self.router.choose(query, self.replicas)
        except NoHealthyReplica:
            if priced:
                self._observe("query_submitted", query)
                self.replicas[0].ledger.on_query_submitted(query,
                                                           self.env.now)
            self.fault_counters.increment("queries_stranded_arrival")
            self._start_failover(query, self.replicas[0].ledger,
                                 backup_index=None)
            return -1
        if not 0 <= index < len(self.replicas):
            raise ValueError(f"router chose invalid replica {index}")
        if not self.replicas[index].up:
            raise ValueError(f"router chose dead replica {index}")
        self._dispatch(query, index, priced)
        return index

    def _dispatch(self, query: Query, index: int, priced: bool) -> None:
        """Submit (``priced``) or adopt ``query`` on replica ``index``."""
        handle = self.replicas[index]
        self.routed_counts[index] += 1
        if handle.breaker is not None:
            handle.breaker.record_routed(self.env.now)
        if priced:
            handle.server.submit_query(query)
        else:
            handle.server.adopt_query(query)
        if query.status.live:  # not rejected by admission control
            self._remember_backup(query, index)

    def broadcast_update(self, arrival_time: float, exec_ms: float,
                         item: str, value: float) -> None:
        """Every live replica gets its own copy of the update; dead
        replicas log it for re-sync at recovery, and replicas behind a
        lossy broadcast window (the ``drop/delay/reorder_updates`` gray
        faults) see the window's failure mode instead of the update."""
        self._broadcast_seq += 1
        seq = self._broadcast_seq
        for replica in self.replicas:
            if not replica.up:
                replica.missed_updates.append((exec_ms, item, value))
                continue
            mode = replica.loss_mode
            if mode is None:
                self._deliver(replica, seq, arrival_time, exec_ms, item,
                              value)
            elif mode == "delay":
                entry = [False, exec_ms, item, value, seq]
                replica.delayed.append(entry)
                self.fault_counters.increment("updates_delayed")
                self.env.process(
                    self._delayed_delivery(replica, entry),
                    name=f"delayed-update-{seq}-r{replica.index}")
            else:  # "drop" and "reorder" both withhold for the heal
                replica.withheld.append((seq, exec_ms, item, value))
                if mode == "drop":
                    self.fault_counters.increment("updates_dropped_window")

    def _deliver(self, handle: ReplicaHandle, seq: int | None,
                 arrival_time: float, exec_ms: float, item: str,
                 value: float) -> None:
        """Hand one broadcast copy to a replica, with gap detection.

        ``seq`` is the broadcast sequence number (None for re-sync
        deliveries, which must not advance or trip the gap cursor).  A
        jump past ``last_seq + 1`` means the link ate updates; a seq at
        or below the cursor arrived out of order.  Both feed the failure
        detector.  Deliveries can land on a replica that crashed after
        they were scheduled (a delayed entry firing mid-outage); those
        fall through to the missed-updates log like any other broadcast.
        """
        if not handle.up:
            handle.missed_updates.append((exec_ms, item, value))
            return
        if seq is not None:
            last = handle.last_seq
            if seq > last + 1:
                self._note_gap(handle, seq - last - 1)
            elif seq <= last:
                self._note_gap(handle, 1, out_of_order=True)
            if seq > last:
                handle.last_seq = seq
        handle.server.submit_update(
            Update(arrival_time, exec_ms, item, value=value))

    def _delayed_delivery(self, handle: ReplicaHandle,
                          entry: list) -> ProcessGenerator:
        """Timer half of the delay window: deliver one entry late
        (unless a heal flush or window abort beat the timer to it)."""
        yield self.env.timeout(handle.loss_delay_ms)
        if entry[0]:
            return
        entry[0] = True
        now = self.env.now
        self._deliver(handle, entry[4], now, entry[1], entry[2], entry[3])
        # Late delivery is detector-visible evidence even when in-order.
        if self.detector is not None:
            self.detector.observe_gap(handle.index, 1, now)
            self._sync_breaker(handle)

    # ------------------------------------------------------------------
    # Replica lifecycle (driven by the fault injector)
    # ------------------------------------------------------------------
    def crash_replica(self, index: int) -> None:
        """Fail-stop ``index``: strand its in-flight work (idempotent).

        With a durability layer attached the crash is *total*: the
        main-memory store is wiped and the WAL's unflushed tail is lost
        (the incident's RPO).  Without one, the database object
        conveniently survives — the original optimistic fault model.
        """
        handle = self.replicas[index]
        if not handle.up:
            return
        handle.up = False
        handle.crashed_at = self.env.now
        handle.crash_count += 1
        incident = RecoveryIncident(scope="replica", replica=index,
                                    crashed_at=self.env.now)
        handle.open_incident = incident
        self.incidents.append(incident)
        if self._portal_incident is not None:
            self._portal_incident.members.append(incident)
        self.fault_counters.increment("replica_crashes")
        if self._probe is not None:
            self._probe.crash(self.env.now, index)
        stranded = handle.server.crash()
        if handle.wal is not None:
            # The source is durable: the lost tail re-enters as re-sync
            # work.  It goes first — those updates were *applied* before
            # the stranded in-flight ones arrived, and the register table
            # resolves per-item re-sync order by last-write-wins.
            lost = handle.server.lose_volatile_state()
            incident.rpo_uu = len(lost)
            self.fault_counters.increment("wal_records_lost", len(lost))
            for record in lost:
                handle.missed_updates.append(
                    (record.exec_ms, record.item, record.value))
        for txn in stranded:
            if txn.is_query:
                self.fault_counters.increment("queries_failed_over")
                self._start_failover(
                    typing.cast(Query, txn), handle.ledger,
                    backup_index=self._backups.pop(txn.txn_id, None))
            else:
                self._lose_update(typing.cast(Update, txn), handle)
        # A crash closes any open gray-failure incident on the replica:
        # the lossy window's withheld updates become ordinary missed
        # broadcasts (newest re-sync work, after the WAL tail and the
        # stranded in-flight updates above), and the slowdown clears —
        # the repaired replica comes back at nominal rate.
        self._abort_window(handle)
        if handle.server.slowdown != 1.0:
            handle.server.set_slowdown(1.0)
        if handle.breaker is not None and handle.breaker.state != OPEN:
            handle.breaker.trip(self.env.now)
            self.fault_counters.increment("breaker_trips")
            if self._probe is not None:
                self._probe.breaker(self.env.now, index, OPEN)

    def recover_replica(self, index: int) -> None:
        """Repair ``index``: rejoin stale, then catch up (idempotent).

        With a durability layer, recovery first restores the last
        crash-consistent checkpoint and replays the durable WAL tail;
        without one the replica's database kept its pre-crash contents.
        Either way, the broadcasts it missed are replayed now in arrival
        order (the register table collapses per-item duplicates), so it
        rejoins with a visible re-sync backlog and works it off under
        its own scheduler.
        """
        handle = self.replicas[index]
        if handle.up:
            return
        now = self.env.now
        crashed_at = typing.cast(float, handle.crashed_at)
        incident = handle.open_incident
        if handle.wal is not None:
            # Restore BEFORE rejoining.  The CRC scan inside survives
            # silent corruption: the replay truncates at the first bad
            # record and the refused suffix is read-repaired from a
            # healthy peer below, instead of the old fail-stop abort.
            checkpoint, replayed, refused = (
                handle.server.restore_durable_state())
            if incident is not None:
                incident.wal_replayed = replayed
                incident.checkpoint_at = (
                    checkpoint.taken_at if checkpoint is not None else None)
            self.fault_counters.increment("wal_records_replayed", replayed)
            if self._probe is not None:
                self._probe.replay(now, index, replayed)
            if refused:
                self.fault_counters.increment("wal_corruption_detected",
                                              len(refused))
                if self.monitor is not None:
                    self.monitor.record("wal_corruption_detected",
                                        replica=index,
                                        records=len(refused))
                if self._probe is not None:
                    self._probe.corrupt(now, index, len(refused))
                self._read_repair(handle, refused)
        handle.up = True
        handle.last_seq = self._broadcast_seq  # re-sync covers the gap
        handle.downtime_ms += now - crashed_at
        self.outage_spans.append((crashed_at, now))
        handle.crashed_at = None
        self.fault_counters.increment("replica_recoveries")
        handle.server.recover()
        missed, handle.missed_updates = handle.missed_updates, []
        for exec_ms, item, value in missed:
            update = Update(now, exec_ms, item, value=value)
            handle.server.submit_update(update)
            self.fault_counters.increment("updates_resynced")
            if incident is not None:
                incident.resynced += 1
                incident.resync_txns.append(update)
        if incident is not None:
            incident.recovered_at = now
            handle.open_incident = None
        if self._probe is not None:
            self._probe.recover(now, index, len(missed))

    def _lose_update(self, update: Update, handle: ReplicaHandle) -> None:
        """An in-flight update died with its replica; the source is
        durable, so it is queued for re-push at recovery."""
        update.end(TxnStatus.LOST_CRASH, self.env.now)
        self._observe("update_lost", update)
        if self._probe is not None:
            self._probe.lost(self.env.now, update)
        self.fault_counters.increment("updates_lost_crash")
        handle.missed_updates.append(
            (update.exec_time, update.item, update.value))

    # ------------------------------------------------------------------
    # Gray failures (driven by the fault injector)
    # ------------------------------------------------------------------
    def slow_replica(self, index: int, factor: float) -> None:
        """Gray fault: ``index`` keeps serving, ``factor``x slower."""
        self.replicas[index].server.set_slowdown(factor)
        self.fault_counters.increment("replica_slowdowns")
        if self._probe is not None:
            self._probe.slow(self.env.now, index, factor)

    def restore_replica(self, index: int) -> None:
        """End a slowdown: ``index`` returns to its nominal rate."""
        self.replicas[index].server.set_slowdown(1.0)
        self.fault_counters.increment("replica_restores")
        if self._probe is not None:
            self._probe.slow(self.env.now, index, 1.0)

    def open_update_window(self, index: int, mode: str,
                           delay_ms: float = 0.0) -> None:
        """Open a lossy broadcast window on ``index``.

        ``mode`` is ``"drop"`` (broadcasts silently withheld),
        ``"delay"`` (each delivered ``delay_ms`` late), or ``"reorder"``
        (withheld, then delivered shuffled at the heal).  One window at
        a time per replica — plan validation enforces the exclusivity.
        """
        if mode not in ("drop", "delay", "reorder"):
            raise ValueError(f"unknown loss mode {mode!r}")
        handle = self.replicas[index]
        if handle.loss_mode is not None:
            raise RuntimeError(
                f"replica {index} already has a {handle.loss_mode!r} "
                f"window open")
        if mode == "delay" and delay_ms <= 0:
            raise ValueError(
                f"delay mode needs a positive delay_ms, got {delay_ms}")
        handle.loss_mode = mode
        handle.loss_delay_ms = delay_ms if mode == "delay" else 0.0
        self.fault_counters.increment("update_windows_opened")
        if self._probe is not None:
            self._probe.window(self.env.now, index, mode)

    def heal_updates(self, index: int) -> None:
        """Close the lossy window on ``index`` and re-sync what it lost.

        * **drop** — the gap is now observable (the detector learns the
          full count at once) and every withheld update is re-delivered
          as fresh re-sync work; the ``gap_healed`` invariant holds this
          re-sync to completeness (dropped == re-synced), which is what
          the chaos harness's planted-bug meta-test deliberately breaks.
        * **delay** — pending deliveries flush immediately, in order.
        * **reorder** — the withheld burst is delivered in a shuffled
          order drawn from the named ``cluster.reorder`` stream (the
          out-of-order sequence numbers feed the detector), then
          per-item last-write-wins is restored by re-pushing the
          true-newest value wherever the shuffle left an older one on
          top.
        """
        handle = self.replicas[index]
        mode = handle.loss_mode
        if mode is None:
            return
        handle.loss_mode = None
        now = self.env.now
        resynced = 0
        if mode == "drop":
            withheld, handle.withheld = handle.withheld, []
            dropped = len(withheld)
            if dropped:
                self._note_gap(handle, dropped)
            if PLANTED_RESYNC_BUG and withheld:
                withheld = withheld[:-1]  # the deliberate heal bug
            for _seq, exec_ms, item, value in withheld:
                self._deliver(handle, None, now, exec_ms, item, value)
                resynced += 1
            self.fault_counters.increment("updates_gap_resynced", resynced)
            handle.last_seq = self._broadcast_seq
            if self.monitor is not None:
                self.monitor.record("gap_healed", replica=index,
                                    dropped=dropped, resynced=resynced)
        elif mode == "delay":
            for entry in handle.delayed:
                if not entry[0]:
                    entry[0] = True
                    self._deliver(handle, entry[4], now, entry[1],
                                  entry[2], entry[3])
                    resynced += 1
            handle.delayed = []
        else:  # reorder
            withheld, handle.withheld = handle.withheld, []
            order = list(range(len(withheld)))
            self._reorder_rng.shuffle(order)
            newest: dict[str, _WithheldUpdate] = {}
            last_delivered: dict[str, int] = {}
            for position in order:
                seq, exec_ms, item, value = withheld[position]
                self._deliver(handle, seq, now, exec_ms, item, value)
                last_delivered[item] = seq
                kept = newest.get(item)
                if kept is None or seq > kept[0]:
                    newest[item] = withheld[position]
            for item in sorted(newest):
                seq, exec_ms, _item, value = newest[item]
                if last_delivered[item] != seq:
                    # The shuffle left an older value registered last;
                    # re-push the true-newest one (last-write-wins).
                    self._deliver(handle, None, now, exec_ms, item, value)
                    resynced += 1
            self.fault_counters.increment("updates_reorder_resynced",
                                          resynced)
            handle.last_seq = self._broadcast_seq
        self.fault_counters.increment("update_windows_healed")
        if self._probe is not None:
            self._probe.heal(now, index, mode, resynced)

    def _abort_window(self, handle: ReplicaHandle) -> None:
        """A crash closes any open window: everything the window still
        holds becomes ordinary missed-broadcast re-sync work."""
        mode = handle.loss_mode
        handle.loss_mode = None
        if mode is None and not handle.delayed:
            return
        withheld, handle.withheld = handle.withheld, []
        for _seq, exec_ms, item, value in withheld:
            handle.missed_updates.append((exec_ms, item, value))
        for entry in handle.delayed:
            if not entry[0]:
                entry[0] = True
                handle.missed_updates.append(
                    (entry[1], entry[2], entry[3]))
        handle.delayed = []
        self.fault_counters.increment("update_windows_aborted")

    def corrupt_wal(self, index: int, records: int = 1) -> None:
        """Gray fault: silently damage the newest ``records`` durable WAL
        records of ``index``.  Latent — nothing happens until the
        replica next restores, whose CRC scan refuses the damaged
        suffix and triggers peer read-repair (see
        :meth:`recover_replica`).  A no-op without a durability layer
        or an empty log (sampled schedules corrupt blindly)."""
        handle = self.replicas[index]
        if handle.wal is None:
            self.fault_counters.increment("wal_corruptions_noop")
            return
        damaged = handle.wal.corrupt_tail(records)
        if damaged:
            self.fault_counters.increment("wal_records_corrupted", damaged)
        else:
            self.fault_counters.increment("wal_corruptions_noop")

    def _read_repair(self, handle: ReplicaHandle,
                     refused: list[WalRecord]) -> None:
        """Re-source the items behind refused WAL records from a peer.

        The lowest-indexed healthy replica donates its current applied
        value per item; repairs are *prepended* to the missed-updates
        backlog so that newer missed broadcasts (replayed after) still
        win per-item.  With no healthy peer the items stay unrepaired
        (counted) — the replica rejoins with pre-checkpoint values and
        catches up only through subsequent broadcasts.
        """
        donor = next((peer for peer in self.replicas
                      if peer.up and peer.index != handle.index), None)
        if donor is None:
            self.fault_counters.increment("wal_corrupt_unrepaired",
                                          len(refused))
            return
        repairs: list[_MissedUpdate] = []
        seen: set[str] = set()
        for record in refused:
            if record.item in seen:
                continue
            seen.add(record.item)
            value = donor.server.database.read(record.item)
            repairs.append((record.exec_ms, record.item, value))
        handle.missed_updates[:0] = repairs
        self.fault_counters.increment("wal_corrupt_resynced", len(repairs))

    # ------------------------------------------------------------------
    # Failure detection + circuit breaking (with a HealthConfig)
    # ------------------------------------------------------------------
    def _note_gap(self, handle: ReplicaHandle, missed: int,
                  out_of_order: bool = False) -> None:
        self.fault_counters.increment(
            "broadcast_out_of_order" if out_of_order else "broadcast_gaps",
            missed)
        if self._probe is not None:
            self._probe.gap(self.env.now, handle.index, missed,
                            out_of_order)
        if self.detector is not None:
            self.detector.observe_gap(handle.index, missed, self.env.now)
            self._sync_breaker(handle)

    def _sync_breaker(self, handle: ReplicaHandle) -> None:
        """Non-query evidence arrived: let a CLOSED breaker trip on it."""
        breaker = handle.breaker
        if breaker is None:
            return
        detector = typing.cast(FailureDetector, self.detector)
        before = breaker.state
        breaker.note_suspicion(
            self.env.now, detector.suspicion(handle.index, self.env.now))
        if breaker.state is not before and breaker.state == OPEN:
            self.fault_counters.increment("breaker_trips")
            if self._probe is not None:
                self._probe.breaker(self.env.now, handle.index, OPEN)

    def _on_query_outcome(self, handle: ReplicaHandle, query: Query,
                          ok: bool) -> None:
        """Server callback: one query finished (or died) on ``handle``."""
        now = self.env.now
        detector = typing.cast(FailureDetector, self.detector)
        if ok:
            detector.observe_response(handle.index, query.response_time(),
                                      now)
        else:
            detector.observe_failure(handle.index, now)
        breaker = typing.cast(CircuitBreaker, handle.breaker)
        before = breaker.state
        breaker.observe(now, ok, detector.suspicion(handle.index, now))
        after = breaker.state
        if after is not before:
            if after == OPEN:
                self.fault_counters.increment("breaker_trips")
            elif before == OPEN:  # OPEN -> HALF_OPEN probe consumed
                self.fault_counters.increment("breaker_probes")
            else:
                self.fault_counters.increment("breaker_closes")
            if self._probe is not None:
                self._probe.breaker(now, handle.index, after)

    # ------------------------------------------------------------------
    # Query failover
    # ------------------------------------------------------------------
    def _remember_backup(self, query: Query, primary: int) -> None:
        choose_backup = getattr(self.router, "choose_backup", None)
        if choose_backup is None:
            return
        backup = choose_backup(query, self.replicas, primary)
        if backup is not None:
            self._backups[query.txn_id] = backup
        else:
            self._backups.pop(query.txn_id, None)

    def _start_failover(self, query: Query, ledger: ProfitLedger,
                        backup_index: int | None) -> None:
        query.status = TxnStatus.CREATED  # between servers again
        self._retrying[query] = ledger
        if self._probe is not None:
            self._probe.failover(self.env.now, query)
        self.env.process(self._failover(query, ledger, backup_index),
                         name=f"failover-{query.txn_id}")

    def _failover(self, query: Query, ledger: ProfitLedger,
                  backup_index: int | None) -> ProcessGenerator:
        # Hedge: the router pre-nominated a backup — resubmit immediately.
        if backup_index is not None and self.replicas[backup_index].up:
            self._adopt(query, backup_index)
            return
        for attempt in range(self.failover_retries):
            # Jittered exponential backoff from the named
            # ``cluster.retry-backoff`` stream: stranded queries spread
            # out instead of stampeding the survivors in lock-step.
            yield self.env.timeout(
                self.failover_backoff_ms * (2.0 ** attempt)
                * self._retry_rng.uniform(0.5, 1.5))
            if query.past_lifetime(self.env.now):
                break  # the crash ate the contract's whole lifetime
            try:
                index = self.router.choose(query, self.replicas)
            except NoHealthyReplica:
                continue
            self._adopt(query, index)
            return
        self._lose_query(query, ledger)

    def _adopt(self, query: Query, index: int) -> None:
        """Resubmit a stranded query to replica ``index``."""
        if query.remaining != query.exec_time:
            query.reset_for_restart()  # partial work died with the crash
        del self._retrying[query]
        self.fault_counters.increment("query_retries")
        if self._probe is not None:
            self._probe.adopt(self.env.now, query, index)
        self._dispatch(query, index, priced=False)

    def _lose_query(self, query: Query, ledger: ProfitLedger) -> None:
        del self._retrying[query]
        self._backups.pop(query.txn_id, None)
        query.end(TxnStatus.LOST_CRASH, self.env.now)
        ledger.on_query_lost_to_crash(query, self.env.now)
        self._observe("query_lost", query)
        if self._probe is not None:
            self._probe.lost(self.env.now, query)

    # ------------------------------------------------------------------
    # Portal-wide outage (the ``portal_crash`` fault kind)
    # ------------------------------------------------------------------
    def crash_portal(self) -> None:
        """Fail-stop the whole portal: every replica goes down at once.

        A portal-scope :class:`RecoveryIncident` is opened; the member
        replicas' episodes aggregate into it (a replica already down
        keeps its own open episode and joins as a member).  Idempotent.
        """
        if self._portal_incident is not None:
            return
        incident = RecoveryIncident(scope="portal", replica=None,
                                    crashed_at=self.env.now)
        self.incidents.append(incident)
        self._portal_incident = incident
        self.fault_counters.increment("portal_crashes")
        if self._probe is not None:
            self._probe.crash(self.env.now, None)
        for handle in self.replicas:
            if handle.up:
                self.crash_replica(handle.index)  # appends to members
            elif handle.open_incident is not None:
                incident.members.append(handle.open_incident)

    def recover_portal(self) -> None:
        """End a portal-wide outage: recover every downed replica."""
        incident = self._portal_incident
        if incident is None:
            return
        self._portal_incident = None
        for handle in self.replicas:
            if not handle.up:
                self.recover_replica(handle.index)
        incident.recovered_at = self.env.now
        self.fault_counters.increment("portal_recoveries")
        if self._probe is not None:
            self._probe.recover(self.env.now, None, 0)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        now = self.env.now
        for replica in self.replicas:
            if not replica.up and replica.crashed_at is not None:
                replica.downtime_ms += now - replica.crashed_at
                self.outage_spans.append((replica.crashed_at, now))
                replica.crashed_at = now  # keep a second finalize additive
        # Queries parked in a backoff when the horizon hit: lost, not
        # vanished — their contracts stay in the denominators.
        for query, ledger in list(self._retrying.items()):
            self._lose_query(query, ledger)
        for replica in self.replicas:
            replica.server.finalize()

    # ------------------------------------------------------------------
    # Shard support: adoption, staleness probes, and state transfer
    # ------------------------------------------------------------------
    def adopt_query(self, query: Query) -> int:
        """Route and enqueue a query whose contract is priced elsewhere.

        The shard planner's fan-out sub-queries arrive here: their
        (scaled, shadow-priced) contracts must stay out of this portal's
        denominators — the parent contract is priced exactly once by the
        coordinating layer.  Routing, breaker bookkeeping, and the
        failover retry loop behave exactly as in :meth:`submit_query`;
        only the ledger pricing differs.  Returns the serving replica's
        index, or ``-1`` when the query entered the failover loop.
        """
        return self._route(query, priced=False)

    def export_items(self, keys: typing.Iterable[str]) -> dict[str, tuple]:
        """Partial state snapshot for ``keys`` from the first live
        replica (the migration donor)."""
        for replica in self.replicas:
            if replica.up:
                return replica.server.database.export_items(keys)
        raise NoHealthyReplica("no live replica to export from")

    def import_items(self, snapshot: dict[str, tuple]) -> None:
        """Install a partial snapshot on every replica (migration copy).

        Every replica gets the items — within a shard the keyspace is
        fully replicated.  A replica that is down mid-migration converges
        through the normal update stream once it recovers (values are
        refreshed by subsequent updates exactly as after any outage).
        """
        for replica in self.replicas:
            replica.server.database.import_items(snapshot)

    def pending_update_for(self, key: str) -> bool:
        """True while any live replica still has a pending (registered,
        unapplied) update for ``key`` — the migration drain predicate."""
        for replica in self.replicas:
            if not replica.up:
                continue
            if replica.server.database.pending_update(key) is not None:
                return True
        return False

    # ------------------------------------------------------------------
    # Cluster-level aggregates
    # ------------------------------------------------------------------
    def rollup(self) -> ProfitRollup:
        """Every replica's ledger as one run; the counters lead with the
        portal's own fault counters."""
        ledgers = [r.ledger for r in self.replicas]
        return ProfitRollup.of([ledgers], [
            self.fault_counters.as_dict(),
            *(ledger.counters.as_dict() for ledger in ledgers)])

    @property
    def total_downtime_ms(self) -> float:
        """Replica-milliseconds of unavailability accrued so far."""
        now = self.env.now
        total = 0.0
        for replica in self.replicas:
            total += replica.downtime_ms
            if not replica.up and replica.crashed_at is not None:
                total += now - replica.crashed_at
        return total

    def downtime_union_ms(self) -> float:
        """Wall-clock time with *at least one* replica down.

        The union of the outage intervals — concurrent outages (a portal
        crash, or overlapping per-replica ones) are counted once, unlike
        the replica-ms sum of :attr:`total_downtime_ms`.  Spans still
        open (replica down right now) are closed at the current clock.
        """
        now = self.env.now
        spans = list(self.outage_spans)
        for replica in self.replicas:
            if not replica.up and replica.crashed_at is not None:
                spans.append((replica.crashed_at, now))
        if not spans:
            return 0.0
        spans.sort()
        total = 0.0
        cur_start, cur_end = spans[0]
        for start, end in spans[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        return total + (cur_end - cur_start)
