"""Transaction queues with lazy invalidation and exact O(1) live counts.

Scheduling queues must tolerate transactions dying *while queued*: an update
is superseded by a newer arrival (register-table invalidation), a query hits
its lifetime deadline.  :class:`TransactionQueue` is a binary heap with lazy
deletion — dead entries are skipped at pop time — plus membership tracking
so a transaction is never queued twice.

Membership *is* the back reference: ``txn`` is a member of ``queue`` iff
``txn._queue is queue`` (no parallel id set to keep in step).  Liveness
accounting is unified around one invariant: **membership implies
liveness**.  :meth:`repro.db.transactions.Transaction.end`, the one way
out of the live set, reports the moment a transaction leaves it, so
``pop`` and in-queue death retire membership at the same place.  That makes
``len(queue)`` — and the per-class ``live_queries`` / ``live_updates``
counts the schedulers' ``pending_*`` introspection and the invariant
monitor hit on every sample — an exact O(1) read instead of the former
O(n) heap scan.

Heap entries stranded by in-queue death are skipped lazily at pop time; when
they outnumber the live entries the heap is compacted in one O(n) pass, so
heap size stays within a constant factor of the live population.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush

from repro.db.transactions import Transaction

from .priorities import PriorityPolicy

#: Compaction triggers only for heaps at least this large (small heaps are
#: cheap to scan and compacting them would thrash).
COMPACT_MIN_ENTRIES = 64
#: ... and only when dead entries outnumber live ones by this factor.
COMPACT_DEAD_FACTOR = 2


class TransactionQueue:
    """A priority queue over transactions, ordered by a priority policy."""

    def __init__(self, policy: PriorityPolicy, name: str = "") -> None:
        self.policy = policy
        self.name = name
        self._heap: list[tuple[float, int, Transaction]] = []
        self._ties = itertools.count()
        #: Exact number of live queued queries / updates (O(1) reads).
        self.live_queries = 0
        self.live_updates = 0

    def __len__(self) -> int:
        """Number of live queued transactions (exact, O(1))."""
        return self.live_queries + self.live_updates

    def __repr__(self) -> str:
        return (f"<TransactionQueue {self.name!r} policy={self.policy.name} "
                f"live={len(self)} entries={len(self._heap)}>")

    def approximate_len(self) -> int:
        """Heap size including dead/stale entries (O(1))."""
        return len(self._heap)

    def push(self, txn: Transaction) -> None:
        """Enqueue ``txn`` unless it is already queued or no longer alive."""
        queue = txn._queue
        if queue is self or not txn.status.live:
            return
        assert queue is None, f"{txn!r} already waits in {queue!r}"
        key = self.policy.key(txn)
        heappush(self._heap, (key, next(self._ties), txn))
        txn._queue = self
        if txn.is_query:
            self.live_queries += 1
        else:
            self.live_updates += 1

    def pop(self) -> Transaction | None:
        """Dequeue the highest-priority live transaction (None if empty)."""
        heap = self._heap
        while heap:
            __, __, txn = heappop(heap)
            if txn._queue is not self:
                continue
            self._retire(txn)
            if txn.status.live:
                return txn
        return None

    def _note_death(self, txn: Transaction) -> None:
        """Called by ``Transaction.end``: a queued transaction just left
        the live set.  Retire its membership immediately so live counts
        stay exact (its heap entry is reclaimed lazily)."""
        if txn._queue is self:
            self._retire(txn)
            self._maybe_compact()

    def _retire(self, txn: Transaction) -> None:
        """Drop ``txn`` from membership and the live counters."""
        txn._queue = None
        if txn.is_query:
            self.live_queries -= 1
        else:
            self.live_updates -= 1

    def _maybe_compact(self) -> None:
        """Rebuild the heap once dead entries dominate (amortised O(1)).

        Entries keep their (key, tie) pairs, so compaction never perturbs
        the pop order — it only sheds the lazy-deletion backlog that
        in-queue deaths leave behind.
        """
        n = len(self._heap)
        live = self.live_queries + self.live_updates
        if (n >= COMPACT_MIN_ENTRIES
                and n - live > COMPACT_DEAD_FACTOR * live):
            self._heap = [entry for entry in self._heap
                          if entry[2]._queue is self]
            heapify(self._heap)
