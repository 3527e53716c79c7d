"""Transaction model: read-only queries and write-only ("blind") updates.

The paper's system model (§2.1) has exactly two transaction classes:

* **queries** — read-only, over one or more data items, each carrying a
  :class:`~repro.qc.contracts.QualityContract`;
* **updates** — write-only and *blind*: each refreshes a single data item
  with a value pushed by an external source, and a newer update for the same
  item invalidates any pending older one.

Both classes share the lifecycle bookkeeping needed by the preemptive server
(remaining service time, restarts, suspension) and by the metrics layer
(arrival / commit timestamps, measured response time and staleness).
``status`` moves between live states by plain writes; every exit from the
live set (commit, drop, supersession, rejection, crash loss, end of run)
is one :meth:`Transaction.end` call.
"""

from __future__ import annotations

import enum
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.qc.contracts import QualityContract


class TxnStatus(enum.Enum):
    """Lifecycle states of a transaction inside the server."""

    #: ``self in LIVE_STATUSES``, filled in below the class: an attribute
    #: read on the hot path where the set lookup hashes the member in Python.
    live: bool

    #: Created but not yet submitted to a server.
    CREATED = "created"
    #: In a scheduler queue, waiting for the CPU.
    QUEUED = "queued"
    #: Currently occupying the CPU.
    RUNNING = "running"
    #: Preempted mid-execution; keeps its locks and remaining service time.
    SUSPENDED = "suspended"
    #: Finished successfully.
    COMMITTED = "committed"
    #: Query only: exceeded its maximum lifetime and was discarded.
    DROPPED_LIFETIME = "dropped_lifetime"
    #: Query only: declined by an admission policy before entering.
    REJECTED = "rejected"
    #: Update only: superseded by a newer update on the same item (the
    #: write-write rule of 2PL-HP / the update register table).
    DROPPED_SUPERSEDED = "dropped_superseded"
    #: Died with a crashed replica: an update whose copy was in flight on
    #: the crashed server, or a query whose failover retries ran out.
    LOST_CRASH = "lost_crash"
    #: Left in the system when the simulation horizon ended.
    UNFINISHED = "unfinished"


#: Statuses from which a transaction can still reach the CPU.
LIVE_STATUSES = frozenset({
    TxnStatus.CREATED, TxnStatus.QUEUED, TxnStatus.RUNNING,
    TxnStatus.SUSPENDED,
})
for _member in TxnStatus:
    _member.live = _member in LIVE_STATUSES
del _member

_INF = float("inf")
_txn_ids = itertools.count(1)


class Transaction:
    """Common state shared by queries and updates."""

    __slots__ = (
        "txn_id", "arrival_time", "exec_time", "remaining", "status",
        "restarts", "start_time", "finish_time", "preemptions", "_queue",
        "on_terminal",
    )

    #: Class tags, overridden by the matching subclass.
    is_query = False
    is_update = False

    def __init__(self, arrival_time: float, exec_time: float) -> None:
        # A chained comparison is False for NaN: each test rejects NaN, the
        # infinities and the wrong sign here rather than deep in the kernel.
        if not 0.0 < exec_time < _INF:
            raise ValueError(
                f"exec_time must be positive and finite, got {exec_time}")
        if not -_INF < arrival_time < _INF:
            raise ValueError(
                f"arrival_time must be finite, got {arrival_time}")
        self.txn_id = next(_txn_ids)
        self.arrival_time = arrival_time
        self.exec_time = exec_time
        #: Service time still owed; decremented as the CPU runs the txn.
        self.remaining = exec_time
        self.status = TxnStatus.CREATED
        #: The TransactionQueue currently holding this transaction (back
        #: reference maintained by the queue itself), or None.  Lets the
        #: queue learn about deaths *immediately* — e.g. an update
        #: superseded while waiting — so its O(1) live count stays exact.
        self._queue = None
        #: Number of 2PL-HP restarts suffered (work thrown away).
        self.restarts = 0
        #: First time the transaction got the CPU (None until then).
        self.start_time: float | None = None
        #: Commit or drop time (None while live).
        self.finish_time: float | None = None
        #: Number of times the transaction was preempted off the CPU.
        self.preemptions = 0
        #: Called exactly once, with the transaction, by :meth:`end`.
        #: Unlike ``DatabaseServer.query_outcome_hook`` this covers every
        #: exit path, which is what a coordinator fanning a query out
        #: across shards needs to resolve its merge.
        self.on_terminal: typing.Callable[["Transaction"], None] | None = \
            None

    # ------------------------------------------------------------------
    def end(self, status: TxnStatus, now: float | None = None) -> None:
        """The one live → terminal transition: set ``status`` (and
        ``finish_time`` if ``now`` is given), tell the owning queue, then
        clear and fire ``on_terminal`` — clearing first frees a fan-out's
        shared state without the cyclic collector.  ``ValueError`` for a
        live ``status`` or a transaction that has already ended."""
        if status.live or not self.status.live:
            raise ValueError(f"{self!r} cannot end as {status.value}")
        self.status = status
        if now is not None:
            self.finish_time = now
        if self._queue is not None:
            self._queue._note_death(self)
        hook = self.on_terminal
        if hook is not None:
            self.on_terminal = None
            hook(self)

    @property
    def alive(self) -> bool:
        """``status.live``; the library reads the flag itself, this stays
        for ``bench/tracing.py``."""
        return self.status.live

    def response_time(self) -> float:
        """Commit latency; only valid for finished transactions."""
        if self.finish_time is None:
            raise ValueError(f"{self!r} has not finished")
        return self.finish_time - self.arrival_time

    def reset_for_restart(self) -> None:
        """Throw away all progress (2PL-HP restart)."""
        self.remaining = self.exec_time
        self.restarts += 1

    def touched_items(self) -> tuple[str, ...]:
        """Keys this transaction accesses (read or write)."""
        raise NotImplementedError


class Query(Transaction):
    """A read-only user query with an attached Quality Contract.

    ``items`` is the query's read set (stock symbols in the paper's
    workload); ``qc`` prices its QoS (response time) and QoD (staleness).
    """

    __slots__ = ("items", "qc", "lifetime_deadline", "staleness",
                 "qos_profit", "qod_profit", "degraded", "shadow_priced")
    is_query = True

    def __init__(self, arrival_time: float, exec_time: float,
                 items: typing.Sequence[str],
                 qc: "QualityContract",
                 lifetime_deadline: float | None = None) -> None:
        super().__init__(arrival_time, exec_time)
        if not items:
            raise ValueError("a query must read at least one item")
        self.items = tuple(items)
        self.qc = qc
        #: Absolute time after which the query is dropped (QoS-independent
        #: composition still requires completion "by a maximum lifetime
        #: deadline", §2.2).
        self.lifetime_deadline = (
            lifetime_deadline if lifetime_deadline is not None
            else arrival_time + qc.lifetime)
        #: Staleness observed at commit (aggregated #uu over the read set).
        self.staleness: float | None = None
        #: Profit actually earned, filled in at commit / drop time.
        self.qos_profit = 0.0
        self.qod_profit = 0.0
        #: Brownout flag: the answer will be served from possibly-stale
        #: cached state at reduced cost; the QoD half of the contract is
        #: forfeited at commit.  See :meth:`apply_brownout`.
        self.degraded = False
        #: Shadow pricing: the contract shapes scheduling priority only;
        #: the server credits zero profit at commit because the contract
        #: is priced (and credited) by a coordinating layer — e.g. the
        #: shard planner's sub-queries, whose parent carries the real
        #: contract.  Prevents double-counting one contract's dollars.
        self.shadow_priced = False

    def apply_brownout(self, factor: float) -> None:
        """Degrade to a brownout answer: cheaper to serve, QoD forfeited.

        Under overload a brownout admission policy admits the query but
        scales its service demand by ``factor`` (skipping the freshness
        work a full answer would do).  The contract stays in every
        denominator — brownout trades the QoD half for keeping the QoS
        half alive, it never hides the contract.  Idempotent; must be
        applied before the query first reaches a CPU.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"brownout factor must be in (0, 1], got {factor}")
        if self.degraded:
            return
        scaled = self.exec_time * factor
        if not 0.0 < scaled < _INF:
            # A tiny factor can underflow the product to zero.
            raise ValueError(
                f"brownout service time must be positive and finite, "
                f"got {self.exec_time} * {factor} = {scaled}")
        self.degraded = True
        self.exec_time = scaled
        self.remaining = scaled

    def commit(self, now: float, staleness: float) -> None:
        """Every tier's commit rule: price the answer, then end (so
        ``on_terminal`` observers see the priced record).  A degraded
        answer forfeits QoD; a shadow-priced sub-query earns nothing, its
        contract being priced by the coordinating layer."""
        self.staleness = staleness
        qos, qod = self.qc.evaluate(now - self.arrival_time, staleness)
        if self.degraded:
            qod = 0.0
        if self.shadow_priced:
            qos = qod = 0.0
        self.qos_profit = qos
        self.qod_profit = qod
        self.end(TxnStatus.COMMITTED, now)

    def __repr__(self) -> str:
        return (f"<Query #{self.txn_id} items={self.items!r} "
                f"{self.status.value} rem={self.remaining:.2f}>")

    def touched_items(self) -> tuple[str, ...]:
        return self.items

    @property
    def total_profit(self) -> float:
        return self.qos_profit + self.qod_profit

    def past_lifetime(self, now: float) -> bool:
        return now > self.lifetime_deadline


class Update(Transaction):
    """A blind, write-only update to a single data item.

    ``seq`` is the per-item arrival sequence number assigned by the database
    when the update is registered; it is what the staleness metric ``#uu``
    counts.  ``value`` is the new master value (used by the value-distance
    staleness extension).
    """

    __slots__ = ("item", "value", "seq")
    is_update = True

    def __init__(self, arrival_time: float, exec_time: float, item: str,
                 value: float = 0.0) -> None:
        super().__init__(arrival_time, exec_time)
        self.item = item
        self.value = value
        #: Per-item sequence number; assigned by Database.register_update.
        self.seq: int = -1

    def __repr__(self) -> str:
        return (f"<Update #{self.txn_id} item={self.item!r} seq={self.seq} "
                f"{self.status.value}>")

    def touched_items(self) -> tuple[str, ...]:
        return (self.item,)
