"""The main-memory database: hash-accessed items + the update register table.

The *update register table* (§2.1 "Updates") holds, per data item, the single
pending update that is allowed to exist in the system.  When a new update
arrives for an item that already has a pending update, the older one is
*invalidated* ("simply dropped from the system without violating data
consistency") — this is also how the write-write rule of 2PL-HP resolves:
the older update loses.

Queries read replica values through :meth:`Database.read`; staleness is
measured against the per-item sequence counters maintained here.
"""

from __future__ import annotations

import operator
import statistics
import typing

from .items import DataItem
from .transactions import Query, TxnStatus, Update

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .wal import WalRecord

#: How a query's read-set staleness values are aggregated into one number.
StalenessAggregation = typing.Literal["max", "mean", "sum"]

#: The full per-item state captured by snapshots (every DataItem slot).
_ITEM_FIELDS: tuple[str, ...] = DataItem.__slots__
#: ``item -> tuple of every field``, one C call per item.
_item_state = operator.attrgetter(*_ITEM_FIELDS)


class Database:
    """A main-memory store of independently-refreshed data items."""

    def __init__(self, keys: typing.Iterable[str] = (),
                 staleness_aggregation: StalenessAggregation = "max",
                 invalidation: bool = True) -> None:
        self._items: dict[str, DataItem] = {
            key: DataItem(key) for key in keys}
        if staleness_aggregation not in ("max", "mean", "sum"):
            raise ValueError(
                f"unknown staleness aggregation {staleness_aggregation!r}")
        self.staleness_aggregation: StalenessAggregation = (
            staleness_aggregation)
        #: Ablation switch: with invalidation off, a newer update does NOT
        #: drop the pending older one — every update must be applied.  The
        #: paper's system model requires invalidation ("the arrival of a
        #: new update automatically invalidates any pending update"); the
        #: toggle exists to measure how load-bearing it is.
        self.invalidation = invalidation
        #: The update register table: item key -> the one pending update.
        self._register: dict[str, Update] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __repr__(self) -> str:
        return (f"<Database items={len(self._items)} "
                f"pending={len(self._register)}>")

    # ------------------------------------------------------------------
    # Item access
    # ------------------------------------------------------------------
    def item(self, key: str) -> DataItem:
        """The :class:`DataItem` for ``key``, creating it if unknown.

        Hash-based access per the paper's data model; items are created on
        first reference so traces never need a separate schema step.
        """
        existing = self._items.get(key)
        if existing is not None:
            return existing
        item = DataItem(key)
        self._items[key] = item
        return item

    def items(self) -> typing.Iterator[DataItem]:
        return iter(self._items.values())

    def read(self, key: str) -> float:
        """The replica's current value for ``key``."""
        return self.item(key).value

    # ------------------------------------------------------------------
    # Update registration / invalidation
    # ------------------------------------------------------------------
    def register_update(self, update: Update, now: float) -> Update | None:
        """Register an arriving update; returns the update it invalidated.

        Assigns the update's per-item sequence number, records the arrival
        on the item (which is what makes the replica stale), and drops any
        older pending update on the same item
        (``TxnStatus.DROPPED_SUPERSEDED``).  The superseded update may be
        queued, suspended, or even running — the caller (the server) is
        responsible for evicting it from the CPU if it was running.
        """
        key = update.item
        item = self._items.get(key)
        if item is None:
            item = self.item(key)
        update.seq = item.record_arrival(now, update.value)

        superseded = self._register.get(key)
        self._register[key] = update
        if superseded is None or not self.invalidation:
            return None
        if superseded.alive:
            superseded.status = TxnStatus.DROPPED_SUPERSEDED
            superseded.finish_time = now
        item.record_superseded()
        return superseded

    def pending_update(self, key: str) -> Update | None:
        """The registered pending update for ``key`` (if any)."""
        pending = self._register.get(key)
        if pending is None or pending.done:
            return None
        return pending

    def pending_count(self) -> int:
        """Number of items with a live pending update."""
        return sum(1 for u in self._register.values() if u.alive)

    def apply_update(self, update: Update, now: float) -> None:
        """Commit an update: refresh the replica and clear the register."""
        key = update.item
        item = self._items.get(key)
        if item is None:
            item = self.item(key)
        item.apply(update.seq, update.value, now)
        if self._register.get(key) is update:
            del self._register[key]

    # ------------------------------------------------------------------
    # Durability: snapshots, crash wipe, and WAL replay
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple]:
        """A crash-consistent copy of the full per-item state.

        Every :class:`DataItem` slot is captured (values are immutable
        scalars, so a tuple per item is a deep copy).  The register table
        is *not* part of the snapshot: pending updates are volatile queue
        state, re-synced from the durable source after a crash.
        """
        return {key: _item_state(item) for key, item in self._items.items()}

    def restore(self, snapshot: dict[str, tuple]) -> None:
        """Replace the store's contents with ``snapshot`` (checkpoint
        restore); anything not in the snapshot is forgotten."""
        self.clear()
        self.import_items(snapshot)

    def clear(self) -> None:
        """Fail-stop wipe: a main-memory store dies with its server."""
        self._items = {}
        self._register = {}

    def export_items(self, keys: typing.Iterable[str]) -> dict[str, tuple]:
        """A partial snapshot: the full per-item state for ``keys`` only.

        The shard migration protocol copies a key range with this +
        :meth:`import_items`; keys this store has never materialised are
        omitted (the destination creates them lazily, exactly as this
        store would have).
        """
        items = self._items
        return {key: _item_state(items[key]) for key in keys if key in items}

    def import_items(self, snapshot: dict[str, tuple]) -> None:
        """Install a partial snapshot, overwriting any existing items.

        The register table is untouched: pending updates for migrated
        keys are the *source's* volatile queue state and are replayed by
        the migration coordinator through the normal update path.
        """
        for key, state in snapshot.items():
            item = DataItem(key)
            for field, value in zip(_ITEM_FIELDS, state):
                setattr(item, field, value)
            self._items[key] = item

    def replay_applied(self, record: "WalRecord") -> None:
        """Re-install one WAL record during recovery.

        The record proves both that the update's arrival happened (it was
        registered before it could be applied) and that it committed, so
        replay advances the arrival counters when the checkpoint predates
        the arrival, then re-applies the value.
        """
        item = self.item(record.item)
        if record.seq > item.latest_seq:
            # Arrived after the checkpoint was cut: recover the arrival
            # bookkeeping the snapshot could not contain.
            item.latest_seq = record.seq
            item.master_value = record.value
            item.updates_arrived += 1
        item.apply(record.seq, record.value, record.applied_at)

    def state_digest(self) -> tuple[tuple[str, float, float, int], ...]:
        """Canonical comparable state: (key, value, master, #uu) rows.

        Two replicas that served the same update stream — live, replayed
        from the WAL, or re-synced after a crash — must produce equal
        digests; this is what the recovery property tests compare.  Only
        items that ever saw an update are included: read-only items are
        materialised lazily by whichever queries happen to be routed
        here, so their presence is routing noise, not replica state.
        """
        return tuple(sorted(
            (item.key, item.value, item.master_value,
             item.unapplied_updates)
            for item in self._items.values() if item.latest_seq > 0))

    # ------------------------------------------------------------------
    # Staleness of a query's read set
    # ------------------------------------------------------------------
    def staleness_age(self, key: str, now: float) -> float:
        """Simulated-time age of ``key``'s earliest unapplied update.

        0.0 while the replica is fresh (or has never seen ``key``).  This
        is the per-key form of the ``td`` metric — the shared signal the
        QC-aware and staleness-aware routers both score routes by (age,
        not just unapplied-update counts).  Non-creating: probing a key
        must not materialise it.
        """
        item = self._items.get(key)
        if item is None:
            return 0.0
        return item.time_differential(now)

    def query_staleness(self, query: Query) -> float:
        """Aggregate ``#uu`` over the query's read set (paper default: max).

        ``uumax = 1`` in the paper means "QoD profit is gained only when no
        update is missed", i.e. the aggregate must be 0 for full step-QC
        profit — the max aggregation matches that reading for multi-item
        queries.
        """
        values = [float(self.item(key).unapplied_updates)
                  for key in query.items]
        return self._aggregate(values)

    def query_time_differential(self, query: Query, now: float) -> float:
        """Aggregate ``td`` over the query's read set (extension metric)."""
        values = [self.item(key).time_differential(now)
                  for key in query.items]
        return self._aggregate(values)

    def query_value_distance(self, query: Query) -> float:
        """Aggregate ``vd`` over the query's read set (extension metric)."""
        values = [self.item(key).value_distance for key in query.items]
        return self._aggregate(values)

    def _aggregate(self, values: list[float]) -> float:
        if self.staleness_aggregation == "max":
            return max(values)
        if self.staleness_aggregation == "mean":
            return statistics.fmean(values)
        return sum(values)
