"""The simulated main-memory web-database server.

A single CPU executes queries and updates in the order the attached
scheduler dictates (§2 "CPU scheduling is the primary means of improving
performance").  The server implements:

* arrival handling — queries are priced into the profit ledger and queued;
  updates pass through the register table (invalidating pending older
  updates, even a *running* one — the 2PL-HP write-write rule);
* a preemptive executor — the scheduler bounds each running slice with a
  quantum (QUTS's atom time) and may preempt on arrivals (UH/QH); preempted
  work keeps its locks and remaining service time;
* 2PL-HP — conservative locks over a transaction's item set, held only
  across a suspension (a conflict needs a holder off the CPU); the
  dispatched transaction outranks every conflicting holder, which is
  restarted (losing progress), so no transaction ever waits for a lock;
* lifetime enforcement — queries past their QC lifetime are dropped when
  they would next touch the CPU;
* class-switch overhead — an optional fixed CPU cost charged whenever the
  CPU switches between serving queries and serving updates, which is what
  makes very small atom times costly (Figure 10b).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.profit import ProfitLedger
from repro.scheduling.base import Scheduler
from repro.sim import Environment, Interrupt
from repro.sim.process import ProcessGenerator
from repro.sim.invariants import InvariantMonitor
from repro.sim.rng import StreamRegistry
from repro.telemetry.events import CAT_KERNEL
from repro.telemetry.hooks import TelemetryKnob, TelemetrySession

from .admission import AdmissionPolicy
from .database import Database
from .locks import LockManager, LockMode
from .transactions import Query, Transaction, TxnStatus, Update
from .wal import Checkpoint, WalRecord, WriteAheadLog

#: Float slack for "service time exhausted".
_EPS = 1e-9


@dataclasses.dataclass
class ServerConfig:
    """Tunable server behaviour (defaults follow the paper / DESIGN.md)."""

    #: CPU cost (ms) of switching the CPU between transaction classes.
    #: The paper discusses switching overhead qualitatively (§4.2); 0.1 ms
    #: is small against 1-9 ms service times but makes τ→1 ms measurably
    #: wasteful, reproducing the left edge of Figure 10b.
    class_switch_overhead: float = 0.1
    #: Drop queries whose lifetime deadline passed before completion.
    drop_late_queries: bool = True
    #: What a *cross-class preemption* (UH/QH's "preemptive dual priority
    #: queue") does to a running update: "restart" aborts it 2PL-HP-style
    #: (blind writes are idempotent and cheap to redo, and aborting avoids
    #: holding write latches across arbitrary higher-priority work), while
    #: "suspend" keeps its progress.  Preempted *queries* are always
    #: suspended (long reads are expensive to redo; their read locks are
    #: what 2PL-HP conflict resolution arbitrates).  QUTS's atom-time slot
    #: switches are cooperative (quantum expiry), never preemption, so
    #: they always keep progress — a core advantage of the two-level
    #: design.
    update_preemption: str = "restart"
    #: Which staleness metric feeds the QoD profit function (§2.1): the
    #: number of unapplied updates ("uu", the paper's choice), the time
    #: differential in ms ("td"), or the value distance ("vd").  The QC's
    #: ``uumax`` threshold is interpreted in the chosen metric's unit.
    qod_metric: str = "uu"

    def __post_init__(self) -> None:
        if not self.class_switch_overhead >= 0:
            raise ValueError(
                f"class_switch_overhead must be >= 0, "
                f"got {self.class_switch_overhead}")
        if self.update_preemption not in ("restart", "suspend"):
            raise ValueError(
                f"update_preemption must be 'restart' or 'suspend', "
                f"got {self.update_preemption!r}")
        if self.qod_metric not in ("uu", "td", "vd"):
            raise ValueError(
                f"qod_metric must be 'uu', 'td', or 'vd', "
                f"got {self.qod_metric!r}")


class _Preempt:
    """Interrupt cause: ``arrival`` wants the CPU from ``victim``."""

    __slots__ = ("arrival",)

    def __init__(self, arrival: Transaction) -> None:
        self.arrival = arrival


class _Superseded:
    """Interrupt cause: the running update was invalidated by ``newer``."""

    __slots__ = ("victim",)

    def __init__(self, victim: Update) -> None:
        self.victim = victim


class _Crashed:
    """Interrupt cause: the server fail-stopped under the running txn."""

    __slots__ = ()


class DatabaseServer:
    """Single-CPU transaction executor driven by a pluggable scheduler."""

    def __init__(self, env: Environment, database: Database,
                 scheduler: Scheduler, ledger: ProfitLedger,
                 streams: StreamRegistry,
                 config: ServerConfig | None = None,
                 admission: "AdmissionPolicy | None" = None,
                 wal: WriteAheadLog | None = None,
                 monitor: InvariantMonitor | None = None,
                 telemetry: TelemetryKnob = None,
                 telemetry_scope: str = "server") -> None:
        self.env = env
        self.database = database
        self.scheduler = scheduler
        self.ledger = ledger
        self.config = config or ServerConfig()
        #: Optional query admission policy (default: admit everything,
        #: the paper's behaviour).  See :mod:`repro.db.admission`.
        self.admission = admission
        #: Optional write-ahead log; when attached, every applied update
        #: is journalled and :meth:`take_checkpoint` fences the log with
        #: a crash-consistent database snapshot.
        self.wal = wal
        #: Optional runtime invariant monitor (an observer: it never
        #: perturbs the run).  See :mod:`repro.sim.invariants`.
        self.monitor = monitor

        scheduler.bind(env, streams)
        self.locks = LockManager()

        #: Telemetry session (None when off).  Shared sessions (cluster)
        #: pass the session in.
        session = TelemetrySession.from_knob(telemetry)
        self.telemetry = session
        self._probe = (session.server_probe(telemetry_scope)
                       if session is not None else None)
        scheduler.attach_telemetry(
            session.scheduler_probe(telemetry_scope)
            if session is not None else None)
        if (session is not None and env.telemetry is None
                and session.tracer.enabled_for(CAT_KERNEL)):
            env.telemetry = session.kernel_probe()

        #: Gray-failure service-rate multiplier (1.0 = nominal).  A CPU
        #: slice of s ms of *work* occupies s × slowdown ms of wall
        #: clock; set by the portal's ``slow_replica`` fault hook.
        self._slowdown = 1.0
        #: Optional callback ``(query, ok)`` the portal installs to feed
        #: its failure detector: True on commit, False when the query
        #: dies on this server (lifetime drop).
        self.query_outcome_hook: (
            typing.Callable[[Query, bool], None] | None) = None

        self._running: Transaction | None = None
        self._last_class: str | None = None
        self._idle_wakeup = None  # type: ignore[assignment]
        #: Fail-stop state: a crashed server executes nothing and refuses
        #: arrivals until :meth:`recover` is called.
        self._crashed = False
        self._recover_event = None  # type: ignore[assignment]

        self._proc = env.process(self._executor(), name="db-server")

    def __repr__(self) -> str:
        return (f"<DatabaseServer t={self.env.now:.0f} "
                f"running={self._running!r}>")

    def _observe(self, kind: str, txn: Transaction,
                 **data: typing.Any) -> None:
        """Feed one lifecycle event to the invariant monitor (if any)."""
        if self.monitor is not None:
            self.monitor.record(
                kind, txn_id=txn.txn_id,
                pending_queries=self.scheduler.pending_queries(),
                pending_updates=self.scheduler.pending_updates(), **data)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> None:
        """A user query arrives (read set + quality contract attached).

        An attached admission policy may reject it outright; a rejected
        query never enters the ledger's denominators (the contract was
        declined, not broken).
        """
        self._check_up()
        now = self.env.now
        if self.monitor is not None:
            self._observe("query_submitted", query)
        probe = self._probe
        if probe is not None:
            probe.arrive(now, query)
        if self.admission is not None and not self.admission.admit(
                query, self):
            query.status = TxnStatus.REJECTED
            query.finish_time = now
            self.ledger.on_query_rejected(
                query, now,
                shed=getattr(self.admission, "is_shedding", False))
            self._observe("query_rejected", query)
            if probe is not None:
                probe.reject(now, query)
            return
        query.status = TxnStatus.QUEUED
        self.ledger.on_query_submitted(query, now)
        self.scheduler.submit_query(query)
        if probe is not None:
            probe.queued(now, query)
        self._on_arrival(query)

    def adopt_query(self, query: Query) -> None:
        """Enqueue a query whose contract is already priced elsewhere.

        The failover path of :class:`~repro.cluster.portal.ReplicatedPortal`
        uses this to move a query stranded on a crashed replica here: the
        contract's maxima stay in the *original* replica's ledger (the
        contract was submitted exactly once), while whatever profit the
        query still earns is credited to this server's ledger at commit.
        Cluster-level sums therefore count each contract once on each side.
        Admission control is bypassed — the query was already admitted.
        """
        self._check_up()
        query.status = TxnStatus.QUEUED
        self.ledger.counters.increment("queries_adopted")
        self.scheduler.submit_query(query)
        if self._probe is not None:
            self._probe.queued(self.env.now, query)
        self._on_arrival(query)

    def submit_update(self, update: Update) -> None:
        """A blind update arrives from the external source."""
        self._check_up()
        now = self.env.now
        if self.monitor is not None:
            self._observe("update_submitted", update)
        probe = self._probe
        if probe is not None:
            probe.arrive(now, update)
        superseded = self.database.register_update(update, now)
        if superseded is not None:
            self.ledger.on_update_superseded(superseded, now)
            self.locks.release_all(superseded)
            if superseded.status is TxnStatus.DROPPED_SUPERSEDED:
                # Only a live victim *transitioned* here; a register
                # entry stranded by an earlier crash already reached its
                # terminal (lost) state.
                if self.monitor is not None:
                    self._observe("update_superseded", superseded)
                if probe is not None:
                    probe.supersede(now, superseded, update)
            if superseded is self._running:
                self._proc.interrupt(_Superseded(superseded))
        update.status = TxnStatus.QUEUED
        self.scheduler.submit_update(update)
        if probe is not None:
            probe.queued(now, update)
        self._on_arrival(update)

    def _on_arrival(self, txn: Transaction) -> None:
        wakeup = self._idle_wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
            return
        running = self._running
        if running is not None and self.scheduler.preempts(running, txn):
            self._proc.interrupt(_Preempt(txn))

    # ------------------------------------------------------------------
    # The executor process
    # ------------------------------------------------------------------
    def _executor(self) -> ProcessGenerator:
        # One generator frame per server, not one per dispatch; what is
        # fixed at construction is read into locals once.
        env = self.env
        timeout = env.timeout
        advance = env.advance
        next_transaction = self.scheduler.next_transaction
        quantum_of = self.scheduler.quantum
        acquire_all = self.locks.acquire_all
        locked = self.locks.table
        probe = self._probe
        drop_late = self.config.drop_late_queries
        switch_overhead = self.config.class_switch_overhead
        while True:
            if self._crashed:
                self._recover_event = env.event()
                try:
                    yield self._recover_event
                except Interrupt:
                    pass
                self._recover_event = None
                continue
            now = env.now
            txn = next_transaction(now)
            if txn is None:
                self._idle_wakeup = env.event()
                try:
                    yield self._idle_wakeup
                except Interrupt:
                    pass
                self._idle_wakeup = None
                continue

            if isinstance(txn, Query):
                if drop_late and txn.past_lifetime(now):
                    self._drop_query(txn)
                    continue
                txn_class, mode = "query", LockMode.READ
            else:
                txn_class, mode = "update", LockMode.WRITE

            # Charge the class-switch overhead before the new class runs,
            # with ``txn`` published as running so that an arrival that
            # should preempt it (an update under UH) interrupts the switch.
            if (self._last_class is not None
                    and txn_class != self._last_class
                    and switch_overhead > 0):
                rate = self._slowdown
                delay = (switch_overhead if rate == 1.0
                         else switch_overhead * rate)
                interrupted = False
                if not advance(delay):
                    self._running = txn
                    try:
                        yield timeout(delay)
                    except Interrupt:
                        interrupted = True
                        # A crash already stranded txn and a superseded
                        # update is dead: requeueing would resurrect them.
                        # A suspended txn keeps status, locks and progress.
                        if not self._crashed and txn.alive:
                            self.scheduler.requeue(txn)
                    self._running = None
                if probe is not None:
                    probe.overhead(now, env.now)
                if interrupted:
                    continue
                now = env.now
            self._last_class = txn_class

            # 2PL-HP over the full item set.  Only suspended transactions
            # hold locks (see _suspend), so with none there is nothing a
            # conflict could restart.
            if locked:
                for loser in acquire_all(txn, mode).restarted:
                    self._handle_restart(loser)

            # Occupy the CPU, one scheduler-bounded slice at a time.
            txn.status = TxnStatus.RUNNING
            if probe is not None:
                probe.running(now, txn, resumed=txn.start_time is not None)
            if txn.start_time is None:
                txn.start_time = now
            self._running = txn
            while True:
                if txn.remaining <= _EPS:
                    # Reached by a transaction preempted at the exact
                    # instant its service finished (no work left).
                    self._commit(txn)
                    break
                slice_ = txn.remaining
                quantum = quantum_of(txn, now)
                if quantum < slice_:
                    slice_ = quantum
                started = now
                # Gray failure: a slowed replica stretches the wall-clock
                # cost of each work slice.  The rate is captured per slice,
                # so mid-slice slowdown changes take effect at the next
                # slice boundary and the accounting stays exact; at the
                # nominal rate the arithmetic below is bit-identical to the
                # un-multiplied original.
                rate = self._slowdown
                delay = slice_ if rate == 1.0 else slice_ * rate
                try:
                    if not advance(delay):
                        yield timeout(delay)
                except Interrupt as interrupt:
                    now = env.now
                    elapsed = now - started
                    txn.remaining -= (elapsed if rate == 1.0
                                      else elapsed / rate)
                    if probe is not None:
                        probe.cpu_slice(started, now, txn)
                    if self._handle_interrupt(
                            txn, interrupt.cause) == "continue":
                        continue
                    break
                txn.remaining -= slice_
                if probe is not None:
                    probe.cpu_slice(started, env.now, txn)
                if txn.remaining <= _EPS:
                    self._commit(txn)
                else:  # quantum expired: the scheduler decides again
                    self._suspend(txn)
                break
            self._running = None

    def _handle_interrupt(self, txn: Transaction, cause: object) -> str:
        """React to an interrupt while ``txn`` runs; returns "continue" to
        keep running or "stop" to leave the run loop."""
        if self._crashed:
            # A pre-crash interrupt (e.g. a preemption raised at the same
            # instant) delivered after the fail-stop: the transaction is
            # stranded already, so never requeue it.
            return "stop"
        if isinstance(cause, _Crashed):
            # Fail-stop: crash() already stranded the transaction and
            # released its locks; just vacate the CPU.
            return "stop"
        if isinstance(cause, _Superseded):
            if cause.victim is txn:
                # Our work is moot; locks were already released on register.
                return "stop"
            return "continue"
        if not txn.alive:
            # Died (e.g. superseded) between the interrupt being raised
            # and delivered: never suspend/requeue a terminal transaction.
            return "stop"
        if isinstance(cause, _Preempt):
            arrival = cause.arrival
            # Re-validate: the arrival may have died (superseded) or the
            # situation may have changed since the interrupt was raised.
            if arrival.alive and self.scheduler.preempts(txn, arrival):
                txn.preemptions += 1
                if self._probe is not None:
                    self._probe.preempt(self.env.now, txn, arrival)
                if (txn.is_update
                        and self.config.update_preemption == "restart"):
                    # Aborted 2PL-HP-style: its write lock goes too.
                    self.locks.release_all(txn)
                    self._handle_restart(txn)
                else:
                    self._suspend(txn)
                return "stop"
            return "continue"
        # Unknown cause (defensive): keep running.
        return "continue"

    def _suspend(self, txn: Transaction) -> None:
        """Take ``txn`` off the CPU; it keeps progress and, from here on,
        its locks (installed now, conflict-free, if its dispatch found an
        empty table: nothing else has run since)."""
        txn.status = TxnStatus.SUSPENDED
        if not self.locks.locks_of(txn):
            self.locks.acquire_all(txn, LockMode.READ if txn.is_query
                                   else LockMode.WRITE)
        if self._probe is not None:
            self._probe.suspend(self.env.now, txn)
        self.scheduler.requeue(txn)

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _commit(self, txn: Transaction) -> None:
        now = self.env.now
        if isinstance(txn, Query):
            query = txn
            query.commit(now, self._measure_staleness(query, now))
            self.ledger.on_query_committed(query, now)
            self.scheduler.notify_query_finished(query)
            if self.monitor is not None:
                self._observe("query_committed", query,
                              profit=query.total_profit)
            if self.query_outcome_hook is not None:
                self.query_outcome_hook(query, True)
        else:
            assert isinstance(txn, Update)
            update = txn
            update.finish_time = now
            update.status = TxnStatus.COMMITTED
            self.database.apply_update(update, now)
            if self.wal is not None:
                self.wal.append_applied(update, now)
            self.ledger.on_update_applied(update, now)
            if self.monitor is not None:
                self._observe("update_applied", update)
        if self._probe is not None:
            self._probe.commit(now, txn)
        if self.locks.table:
            self.locks.release_all(txn)

    def _measure_staleness(self, query: Query, now: float) -> float:
        """The query's QoD metric per ``ServerConfig.qod_metric``."""
        metric = self.config.qod_metric
        if metric == "uu":
            return self.database.query_staleness(query)
        if metric == "td":
            return self.database.query_time_differential(query, now)
        return self.database.query_value_distance(query)

    def _drop_query(self, query: Query) -> None:
        query.finish_time = self.env.now
        query.status = TxnStatus.DROPPED_LIFETIME
        self.locks.release_all(query)
        self.ledger.on_query_dropped(query, self.env.now)
        self.scheduler.notify_query_finished(query)
        self._observe("query_dropped", query)
        if self._probe is not None:
            self._probe.expire(self.env.now, query)
        if self.query_outcome_hook is not None:
            self.query_outcome_hook(query, False)

    def _handle_restart(self, loser: Transaction) -> None:
        """A 2PL-HP victim (or a preempted update): progress lost, back to
        its queue."""
        loser.reset_for_restart()
        self.ledger.on_restart(loser.is_query)
        loser.status = TxnStatus.QUEUED
        if self._probe is not None:
            self._probe.restart(self.env.now, loser)
        self.scheduler.requeue(loser)

    # ------------------------------------------------------------------
    # Gray failure: service-rate degradation
    # ------------------------------------------------------------------
    @property
    def slowdown(self) -> float:
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Stretch (or restore) the wall-clock cost of CPU work.

        Takes effect at the next slice boundary; slices already in
        flight finish at the rate they started with, which keeps the
        work accounting exact and deterministic.
        """
        if not factor > 0:
            raise ValueError(f"slowdown factor must be positive, "
                             f"got {factor}")
        self._slowdown = factor

    # ------------------------------------------------------------------
    # Fail-stop crash / recovery (driven by the portal / fault injector)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    def _check_up(self) -> None:
        if self._crashed:
            raise RuntimeError(
                "server is crashed; a dead replica receives no work "
                "(the portal must gate routing and broadcasts)")

    def crash(self) -> list[Transaction]:
        """Fail-stop: drop every piece of in-flight work.

        Returns the live transactions that were stranded — queued and
        running alike.  The caller (the portal's failover path) decides
        their fate: queries can be retried on surviving replicas, updates
        are lost and must be re-synced on recovery.  All locks are released
        and the executor parks until :meth:`recover`; progress of the
        running transaction is lost (its partial slice dies with the CPU).
        """
        if self._crashed:
            return []
        self._crashed = True
        stranded: list[Transaction] = []
        running = self._running
        if running is not None and running.alive:
            stranded.append(running)
        while True:
            txn = self.scheduler.next_transaction(self.env.now)
            if txn is None:
                break
            if txn.alive:
                stranded.append(txn)
        for txn in stranded:
            self.locks.release_all(txn)
        self._last_class = None
        if running is not None:
            self._proc.interrupt(_Crashed())
        return stranded

    def recover(self) -> None:
        """Bring a crashed server back up (empty queues, stale replica).

        The database keeps its pre-crash contents — a rejoining replica is
        *stale*, not blank — and the portal re-syncs it by replaying the
        broadcasts it missed while down.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._last_class = None
        if (self._recover_event is not None
                and not self._recover_event.triggered):
            self._recover_event.succeed()

    # ------------------------------------------------------------------
    # Durability (active only with an attached WAL)
    # ------------------------------------------------------------------
    def take_checkpoint(self) -> Checkpoint:
        """Fence the WAL with a crash-consistent snapshot: the full item
        state plus a digest of the (volatile) scheduler queues."""
        if self.wal is None:
            raise RuntimeError("no write-ahead log attached; construct "
                               "the server with wal=WriteAheadLog(...)")
        digest = {
            "pending_queries": self.scheduler.pending_queries(),
            "pending_updates": self.scheduler.pending_updates(),
        }
        return self.wal.take_checkpoint(self.database, digest,
                                        self.env.now)

    def lose_volatile_state(self) -> list[WalRecord]:
        """Crash the durability layer: wipe the main-memory store and
        drop the WAL's unflushed tail.  Returns the lost records (the
        incident's RPO) for re-sync from the durable source."""
        if self.wal is None:
            return []
        lost = self.wal.crash()
        self.database.clear()
        return lost

    def restore_durable_state(self) -> tuple[
            Checkpoint | None, int, list[WalRecord]]:
        """Rebuild the store from the last checkpoint plus the *verified*
        durable WAL tail; returns ``(checkpoint, records replayed,
        records refused)``.

        Silent corruption is survived, not fatal: the CRC scan truncates
        the replay at the first record that fails verification — that
        record and everything after it (the LSN chain past a torn record
        is untrustworthy) come back in the third slot for the caller to
        re-sync from a healthy peer or the durable source.  Strict
        raise-on-corruption reads remain available via
        :meth:`~repro.db.wal.WriteAheadLog.recover`.
        """
        if self.wal is None:
            return None, 0, []
        checkpoint, tail, refused = self.wal.recover_verified()
        if checkpoint is not None:
            self.database.restore(checkpoint.items)
        for record in tail:
            self.database.replay_applied(record)
        return checkpoint, len(tail), refused

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Account every transaction still in the system as unfinished."""
        leftovers: list[Transaction] = []
        if self._running is not None:
            leftovers.append(self._running)
        while True:
            txn = self.scheduler.next_transaction(self.env.now)
            if txn is None:
                break
            leftovers.append(txn)
        for txn in leftovers:
            if not txn.alive:
                continue
            txn.status = TxnStatus.UNFINISHED
            if self._probe is not None:
                self._probe.unfinished(self.env.now, txn)
            if txn.is_query:
                self.ledger.on_query_unfinished(typing.cast(Query, txn))
                self._observe("query_unfinished", txn)
            else:
                self.ledger.on_update_unfinished(typing.cast(Update, txn))
                self._observe("update_unfinished", txn)

    @property
    def lock_stats(self) -> dict[str, int]:
        return {
            "conflicts": self.locks.conflicts,
            "restarts_caused": self.locks.restarts_caused,
            # No requester ever waits (see repro.db.locks); the key stays
            # because benchmark fingerprints hash all three.
            "blocks_caused": 0,
        }
