"""Dual-priority-queue baselines: Update-High and Query-High (§3.2).

Both keep separate query and update queues with their own low-level
priorities, and give one class *fixed*, preemptive priority over the other:

* **UH** — updates always run first (zero staleness, terrible response
  times under bursts);
* **QH** — queries always run first (best response times, staleness piles
  up).

The paper's configuration is VRD for the query queue and FIFO for the update
queue; the naive FIFO-UH / FIFO-QH policies of Figure 1 are the same
machinery with FCFS queries.  The fixed priority also induces the 2PL-HP
predicate: the favoured class wins every lock conflict.
"""

from __future__ import annotations

import typing

from repro.db.transactions import Query, Transaction, Update

from .base import Scheduler
from .priorities import FCFSPriority, PriorityPolicy, VRDPriority
from .queues import TransactionQueue

HighClass = typing.Literal["query", "update"]


class DualQueueScheduler(Scheduler):
    """Preemptive dual queue with a fixed high-priority class."""

    def __init__(self, high: HighClass,
                 query_policy: PriorityPolicy | None = None,
                 update_policy: PriorityPolicy | None = None,
                 name: str | None = None) -> None:
        super().__init__()
        if high not in ("query", "update"):
            raise ValueError(f"high must be 'query' or 'update', got {high!r}")
        self.high: HighClass = high
        self._queries = TransactionQueue(
            query_policy if query_policy is not None else VRDPriority(),
            name="queries")
        self._updates = TransactionQueue(
            update_policy if update_policy is not None else FCFSPriority(),
            name="updates")
        if name:
            self.name = name

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} high={self.high} "
                f"q={self._queries.approximate_len()} "
                f"u={self._updates.approximate_len()}>")

    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> None:
        self._queries.push(query)
        if self.probe is not None:
            self._trace_depths()

    def submit_update(self, update: Update) -> None:
        self._updates.push(update)
        if self.probe is not None:
            self._trace_depths()

    def next_transaction(self, now: float) -> Transaction | None:
        first, second = ((self._updates, self._queries)
                         if self.high == "update"
                         else (self._queries, self._updates))
        txn = first.pop()
        if txn is None:
            txn = second.pop()
        if txn is not None and self.probe is not None:
            self._trace_depths()
        return txn

    def preempts(self, running: Transaction, arrival: Transaction) -> bool:
        """A high-class arrival kicks a low-class transaction off the CPU."""
        if self.high == "update":
            return arrival.is_update and running.is_query
        return arrival.is_query and running.is_update

    # ------------------------------------------------------------------
    def pending_queries(self) -> int:
        return len(self._queries)

    def pending_updates(self) -> int:
        return len(self._updates)


def make_uh() -> DualQueueScheduler:
    """UH: updates high, VRD queries (§3.2)."""
    return DualQueueScheduler("update", VRDPriority(), FCFSPriority(),
                              name="UH")


def make_qh() -> DualQueueScheduler:
    """QH: queries high, VRD queries (§3.2)."""
    return DualQueueScheduler("query", VRDPriority(), FCFSPriority(),
                              name="QH")


def make_fifo_uh() -> DualQueueScheduler:
    """FIFO-UH: the naive Figure 1 variant (FCFS queries, updates high)."""
    return DualQueueScheduler("update", FCFSPriority(), FCFSPriority(),
                              name="FIFO-UH")


def make_fifo_qh() -> DualQueueScheduler:
    """FIFO-QH: the naive Figure 1 variant (FCFS queries, queries high)."""
    return DualQueueScheduler("query", FCFSPriority(), FCFSPriority(),
                              name="FIFO-QH")
