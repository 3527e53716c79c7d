"""The live QC gateway: the simulator's scheduling core on real traffic.

:class:`QCGateway` drives the *same* :class:`~repro.scheduling.core.
SchedulerCore` instances the DES drives — bound to a
:class:`~repro.serve.clock.MonotonicClock` instead of simulated time —
against an in-memory :class:`~repro.db.database.Database`, with the
same :class:`~repro.metrics.profit.ProfitLedger` accounting (timestamps
are gateway-clock milliseconds).  A single asyncio executor task owns
the CPU: it pops the scheduler's choice, "runs" it by sleeping its
service time in bounded slices (cooperative quanta, exactly the DES
executor's slicing discipline) laid end to end on the modelled CPU's
own timeline (:meth:`QCGateway._run`), and commits through the same
commit rule (:meth:`~repro.db.transactions.Query.commit`: brownout
forfeits QoD).  Because only that one task touches the database, the
2PL lock manager is unnecessary on the live path — serialisation is
structural, not lock-based.

The overload-robustness layer wraps that core:

* **bounded ingress + backpressure** — at most ``max_pending`` queued
  transactions; beyond that, submissions get an immediate
  ``backpressure`` reply with a ``retry_after_ms`` hint instead of an
  unbounded queue (the client's retry policy decides what to do);
* **admission reuse** — any :class:`~repro.db.admission.AdmissionPolicy`
  (notably :class:`~repro.db.admission.OverloadShedding` and
  :class:`~repro.db.admission.BrownoutAdmission`) plugs in unchanged:
  the gateway exposes the ``.scheduler`` / ``.ledger`` surface those
  policies read;
* **deadlines + cooperative cancellation** — each query gets an
  absolute deadline ``min(lifetime, arrival + deadline_factor·rtmax)``;
  expired work is cancelled at pop time and by a periodic sweep, so a
  query that can no longer earn QoS profit never wastes CPU;
* **graceful degradation** — brownout answers are served from current
  replica state at reduced service cost with the QoD half of the
  contract honestly forfeited at commit (``degraded`` → ``qod = 0``),
  identical to the DES commit rule.

Every submission resolves to exactly one terminal
:class:`GatewayReply` outcome — ``completed``, ``shed``,
``backpressure``, ``timed_out``, ``superseded``, or ``unfinished`` (at
forced shutdown) — a conservation law the property tests pin down.
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing

from repro.db.admission import AdmissionPolicy
from repro.db.database import Database, StalenessAggregation
from repro.db.transactions import Query, Transaction, TxnStatus, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.scheduling.core import SchedulerCore
from repro.sim.rng import StreamRegistry

from .clock import MonotonicClock

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.hooks import ServerProbe, TelemetrySession

#: Terminal outcomes a submission can resolve to.
OUTCOMES = ("completed", "shed", "backpressure", "timed_out",
            "superseded", "unfinished")


@dataclasses.dataclass
class GatewayReply:
    """The terminal answer for one submitted request."""

    outcome: str
    txn_id: int
    response_time_ms: float | None = None
    qos_profit: float = 0.0
    qod_profit: float = 0.0
    staleness: float | None = None
    degraded: bool = False
    values: dict[str, float] | None = None
    #: Backpressure hint: how long the client should wait before retrying.
    retry_after_ms: float | None = None


@dataclasses.dataclass
class GatewayConfig:
    """Tuning knobs for the serving path (times in milliseconds)."""

    #: Bounded ingress, per class: a full query queue must not block
    #: updates (freshness) and a full update queue must not block
    #: queries (responsiveness), so each class gets its own bound.
    max_pending_queries: int = 256
    max_pending_updates: int = 1024
    #: Longest uninterrupted CPU slice (the cooperative quantum bound).
    slice_ms: float = 5.0
    #: Query deadline = arrival + deadline_factor × rtmax (capped by the
    #: QC lifetime); None disables rtmax-derived deadlines (lifetime
    #: still applies).
    deadline_factor: float | None = 4.0
    #: Cooperatively cancel expired queries (False: no-defenses baseline
    #: — expired work still burns CPU and commits worthless answers).
    drop_expired: bool = True
    #: Period of the expired-work sweep over the waiting queries.
    sweep_interval_ms: float = 25.0
    #: Service-time divisor (2.0 halves every sleep: a 2× faster CPU).
    cpu_speed: float = 1.0
    #: Backpressure hint handed to clients with a ``backpressure`` reply.
    retry_after_ms: float = 25.0
    #: Staleness aggregation over a query's read set (paper default max).
    staleness_aggregation: StalenessAggregation = "max"

    def __post_init__(self) -> None:
        if self.max_pending_queries <= 0:
            raise ValueError(f"max_pending_queries must be positive, "
                             f"got {self.max_pending_queries}")
        if self.max_pending_updates <= 0:
            raise ValueError(f"max_pending_updates must be positive, "
                             f"got {self.max_pending_updates}")
        if not self.slice_ms > 0:
            raise ValueError(
                f"slice_ms must be positive, got {self.slice_ms}")
        if (self.deadline_factor is not None
                and not self.deadline_factor > 0):
            raise ValueError(
                f"deadline_factor must be positive, got "
                f"{self.deadline_factor}")
        if not self.sweep_interval_ms > 0:
            raise ValueError(
                f"sweep_interval_ms must be positive, got "
                f"{self.sweep_interval_ms}")
        if not self.cpu_speed > 0:
            raise ValueError(
                f"cpu_speed must be positive, got {self.cpu_speed}")
        if not self.retry_after_ms >= 0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {self.retry_after_ms}")


@dataclasses.dataclass
class CpuAccount:
    """Did the host keep up with the modelled CPU?  ``lag``: how far
    real time trailed it at slice starts.  ``charged_ms / busy_wall_ms``:
    its observed speed (1.0 = rated) over slices entered straight from
    the one before — service charged vs real time between wake-ups."""

    slices: int = 0
    lag_sum_ms: float = 0.0
    lag_max_ms: float = 0.0
    charged_ms: float = 0.0
    busy_wall_ms: float = 0.0


class QCGateway:
    """A live asyncio database server around one scheduling core."""

    def __init__(self, scheduler: SchedulerCore,
                 config: GatewayConfig | None = None,
                 admission: AdmissionPolicy | None = None,
                 master_seed: int = 0,
                 telemetry: "TelemetrySession | None" = None,
                 clock: MonotonicClock | None = None) -> None:
        self.config = config if config is not None else GatewayConfig()
        #: The decision core — the same instance type the DES drives.
        self.scheduler = scheduler
        self.admission = admission
        self.database = Database(
            staleness_aggregation=self.config.staleness_aggregation)
        self.ledger = ProfitLedger()
        self.streams = StreamRegistry(master_seed)
        self.clock = clock if clock is not None else MonotonicClock()
        self.clock.call_periodic(self.config.sweep_interval_ms, self._sweep,
                                 name="gw-sweeper")
        self.telemetry = telemetry
        self._probe: "ServerProbe | None" = None
        #: When the CPU's last slice nominally ended / really woke (ms).
        self._cpu_free_at = self._cpu_woke_at = 0.0
        self.cpu = CpuAccount()

        self._running = False
        self._tasks: list[asyncio.Task[None]] = []
        self._work = asyncio.Event()
        self._running_txn: Transaction | None = None
        self._preempted_by: Transaction | None = None
        #: txn_id -> (txn, future) for every in-flight submission.
        self._waiters: dict[
            int, tuple[Transaction, asyncio.Future[GatewayReply]]] = {}
        #: txn_id -> absolute deadline (gateway-clock ms).
        self._deadlines: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the core to the live clock and start serving."""
        if self._running:
            return
        self._running = True
        if self.telemetry is not None:
            self._probe = self.telemetry.server_probe("gateway")
            self.scheduler.attach_telemetry(
                self.telemetry.scheduler_probe("gateway"))
        self.scheduler.bind_clock(self.clock, self.streams)
        self.clock.start()
        self._tasks = [asyncio.get_running_loop().create_task(
            self._executor(), name="gw-executor")]

    async def stop(self) -> None:
        """Stop serving; unresolved submissions resolve ``unfinished``."""
        self._running = False
        self._work.set()
        await self.clock.stop()
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for txn_id in list(self._waiters):
            txn, _ = self._waiters[txn_id]
            if txn.status.live:
                txn.end(TxnStatus.UNFINISHED)
            if txn.is_query:
                self.ledger.on_query_unfinished(
                    typing.cast(Query, txn))
            else:
                self.ledger.on_update_unfinished(
                    typing.cast(Update, txn))
            self._resolve(txn_id, GatewayReply("unfinished", txn_id))
        self._deadlines.clear()

    async def drain(self, timeout_ms: float = 10_000.0) -> bool:
        """Wait until every in-flight submission resolved (True) or the
        timeout elapsed (False)."""
        deadline = self.clock.now + timeout_ms
        while self._waiters:
            if self.clock.now >= deadline:
                return False
            await self.clock.sleep_until(self.clock.now + 5.0)
        return True

    @property
    def pending(self) -> int:
        """Queued transactions (the bounded-ingress occupancy)."""
        return (self.scheduler.pending_queries()
                + self.scheduler.pending_updates())

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def submit_query(self, items: typing.Sequence[str],
                     qc: QualityContract,
                     exec_ms: float) -> "asyncio.Future[GatewayReply]":
        """Submit a query; the future resolves to its terminal reply."""
        now = self.clock.now
        query = Query(now, exec_ms / self.config.cpu_speed, items, qc)
        future: asyncio.Future[GatewayReply] = (
            asyncio.get_running_loop().create_future())
        if self._probe is not None:
            self._probe.arrive(now, query)
        if (self.scheduler.pending_queries()
                >= self.config.max_pending_queries):
            self.ledger.counters.increment("queries_backpressured")
            future.set_result(GatewayReply(
                "backpressure", query.txn_id,
                retry_after_ms=self.config.retry_after_ms))
            return future
        if self.admission is not None and not self.admission.admit(
                query, typing.cast(typing.Any, self)):
            query.end(TxnStatus.REJECTED, now)
            self.ledger.on_query_rejected(
                query, now,
                shed=getattr(self.admission, "is_shedding", False))
            if self._probe is not None:
                self._probe.reject(now, query)
            future.set_result(GatewayReply(
                "shed", query.txn_id,
                retry_after_ms=self.config.retry_after_ms))
            return future
        self._waiters[query.txn_id] = (query, future)
        self._deadlines[query.txn_id] = self._deadline_for(query)
        query.status = TxnStatus.QUEUED
        self.ledger.on_query_submitted(query, now)
        self.scheduler.submit_query(query)
        if self._probe is not None:
            self._probe.queued(now, query)
        self._on_arrival(query)
        return future

    def submit_update(self, item: str, value: float,
                      exec_ms: float) -> "asyncio.Future[GatewayReply]":
        """Submit a blind update; resolves ``completed`` when applied or
        ``superseded`` when a newer update for the item invalidates it."""
        now = self.clock.now
        update = Update(now, exec_ms / self.config.cpu_speed, item, value)
        future: asyncio.Future[GatewayReply] = (
            asyncio.get_running_loop().create_future())
        if self._probe is not None:
            self._probe.arrive(now, update)
        if (self.scheduler.pending_updates()
                >= self.config.max_pending_updates):
            self.ledger.counters.increment("updates_backpressured")
            future.set_result(GatewayReply(
                "backpressure", update.txn_id,
                retry_after_ms=self.config.retry_after_ms))
            return future
        superseded = self.database.register_update(update, now)
        if superseded is not None:
            self.ledger.on_update_superseded(superseded, now)
            if self._probe is not None \
                    and superseded.status is TxnStatus.DROPPED_SUPERSEDED:
                self._probe.supersede(now, superseded, update)
            self._resolve(superseded.txn_id,
                          GatewayReply("superseded", superseded.txn_id))
        self._waiters[update.txn_id] = (update, future)
        update.status = TxnStatus.QUEUED
        self.scheduler.submit_update(update)
        if self._probe is not None:
            self._probe.queued(now, update)
        self._on_arrival(update)
        return future

    def _deadline_for(self, query: Query) -> float:
        deadline = query.lifetime_deadline
        factor = self.config.deadline_factor
        rt_max = query.qc.rt_max
        if factor is not None and 0 < rt_max < float("inf"):
            deadline = min(deadline, query.arrival_time + factor * rt_max)
        return deadline

    def _on_arrival(self, txn: Transaction) -> None:
        self._work.set()
        running = self._running_txn
        if running is not None and self.scheduler.preempts(running, txn):
            self._preempted_by = txn

    # ------------------------------------------------------------------
    # The executor task (the single CPU)
    # ------------------------------------------------------------------
    async def _executor(self) -> None:
        scheduler, clock = self.scheduler, self.clock
        while self._running:
            txn = scheduler.next_transaction(clock.now)
            if txn is None:
                self._work.clear()
                if not scheduler.has_work():
                    await self._work.wait()
                else:  # pragma: no cover - scheduler declined to pick
                    await clock.sleep_until(clock.now)
                continue
            if not txn.status.live:
                continue  # lazily-deleted entry (e.g. superseded update)
            now = clock.now
            if (self.config.drop_expired and txn.is_query
                    and self._expired(typing.cast(Query, txn), now)):
                self._drop_expired(typing.cast(Query, txn), now)
                continue
            await self._run(txn)

    def _expired(self, query: Query, now: float) -> bool:
        deadline = self._deadlines.get(query.txn_id,
                                       query.lifetime_deadline)
        return now >= deadline

    def _drop_expired(self, query: Query, now: float) -> None:
        query.end(TxnStatus.DROPPED_LIFETIME, now)
        self.ledger.on_query_dropped(query, now)
        self.scheduler.notify_query_finished(query)
        if self._probe is not None:
            self._probe.expire(now, query)
        self._resolve(query.txn_id,
                      GatewayReply("timed_out", query.txn_id))

    async def _run(self, txn: Transaction) -> None:
        """Run ``txn`` in cooperative slices until commit, preemption, a
        zero quantum, or mid-run supersession.

        Slices are paced on the modelled CPU's own timeline, not from
        "now": each starts where the previous one *nominally* ended and
        the task sleeps to its absolute end.  Three properties:

        * no work before arrival and no idle credit — ``max(..,
          arrival_time)`` restarts the timeline after an idle gap;
        * never ahead of real time — ``start <= now``, so nothing
          commits before ``arrival + exec``;
        * overshoot does not accumulate — a late wake-up is repaid by
          the next slice's shorter sleep, so a transaction finishes at
          its ideal single-server (Lindley) completion plus *at most
          one* timer overshoot: the CPU runs at its rated speed.

        ``finish_time`` stays on the real clock (no reply is reported
        faster than it was); the debt is uncapped (a host stall stalls
        the process, not the modelled CPU) and ``sleep_until`` always
        yields, so repaying it cannot starve I/O.
        """
        scheduler, clock, config = self.scheduler, self.clock, self.config
        txn.status = TxnStatus.RUNNING
        if txn.start_time is None:
            txn.start_time = clock.now
        self._running_txn = txn
        self._preempted_by = None
        try:
            while True:
                now = clock.now
                quantum = scheduler.quantum(txn, now)
                if quantum <= 0.0:
                    txn.status = TxnStatus.QUEUED
                    txn.preemptions += 1
                    scheduler.requeue(txn)
                    return
                slice_ms = min(txn.remaining, quantum, config.slice_ms)
                free_at, cpu = self._cpu_free_at, self.cpu
                start = min(now, max(free_at, txn.arrival_time))
                end = self._cpu_free_at = start + slice_ms
                await clock.sleep_until(end)
                woke = clock.now
                cpu.slices += 1
                cpu.lag_sum_ms += now - start
                cpu.lag_max_ms = max(cpu.lag_max_ms, now - start)
                if start <= free_at:  # straight from the previous slice
                    cpu.charged_ms += slice_ms
                    cpu.busy_wall_ms += woke - self._cpu_woke_at
                self._cpu_woke_at = woke
                if not txn.status.live:
                    return  # superseded mid-run; already resolved
                if self._probe is not None:
                    self._probe.cpu_slice(start, end, txn)
                txn.remaining -= slice_ms
                if txn.remaining <= 1e-9:
                    self._commit(txn)
                    return
                preemptor = self._preempted_by
                if preemptor is not None:
                    self._preempted_by = None
                    txn.status = TxnStatus.QUEUED
                    txn.preemptions += 1
                    scheduler.requeue(txn)
                    if self._probe is not None:
                        self._probe.preempt(clock.now, txn, preemptor)
                    return
        finally:
            self._running_txn = None

    def _commit(self, txn: Transaction) -> None:
        now = self.clock.now
        if txn.is_query:
            query = typing.cast(Query, txn)
            query.commit(now, self.database.query_staleness(query))
            self.ledger.on_query_committed(query, now)
            self.scheduler.notify_query_finished(query)
            self._resolve(query.txn_id, GatewayReply(
                "completed", query.txn_id,
                response_time_ms=query.response_time(),
                qos_profit=query.qos_profit, qod_profit=query.qod_profit,
                staleness=query.staleness, degraded=query.degraded,
                values={key: self.database.read(key)
                        for key in query.items}))
        else:
            update = typing.cast(Update, txn)
            update.end(TxnStatus.COMMITTED, now)
            self.database.apply_update(update, now)
            self.ledger.on_update_applied(update, now)
            self._resolve(update.txn_id, GatewayReply(
                "completed", update.txn_id,
                response_time_ms=update.response_time()))
        if self._probe is not None:
            self._probe.commit(now, txn)

    # ------------------------------------------------------------------
    # The deadline sweep
    # ------------------------------------------------------------------
    def _sweep(self, now: float) -> None:
        """Cancel waiting queries that are past deadline (a clock
        periodic, every ``sweep_interval_ms``).

        The pop-time check alone is enough for correctness, but under a
        long backlog an expired query would sit queued (and hold its
        client's future open) until the scheduler finally reached it;
        the sweep resolves it as soon as its deadline passes.  The
        status flip to ``DROPPED_LIFETIME`` is what evicts it from the
        lazy-deletion heap.
        """
        if not self.config.drop_expired:
            return
        expired = [typing.cast(Query, txn)
                   for txn, _ in self._waiters.values()
                   if txn.is_query
                   and txn.status is TxnStatus.QUEUED
                   and now >= self._deadlines.get(
                       txn.txn_id, float("inf"))]
        for query in expired:
            self._drop_expired(query, now)

    # ------------------------------------------------------------------
    def _resolve(self, txn_id: int, reply: GatewayReply) -> None:
        entry = self._waiters.pop(txn_id, None)
        self._deadlines.pop(txn_id, None)
        if entry is None:
            return
        _, future = entry
        if not future.done():
            future.set_result(reply)
