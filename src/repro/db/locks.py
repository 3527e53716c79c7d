"""Two-Phase Locking with High Priority (2PL-HP) on one CPU.

2PL-HP (Abbott & Garcia-Molina) compares priorities at a conflict: a
requester that outranks the holder **restarts** it (the holder loses its
locks and its progress); an outranked requester would wait.  On the
paper's single CPU the requester is the transaction just dispatched, and
every holder is one the CPU has left and put back in its queue.  Each
policy dispatches a class only when no higher-priority work is queued (UH
and QH serve their low class only on an empty high queue, QUTS only the
class owning the current slot, and FIFO never suspends), so **every
conflicting holder is restarted** and no requester ever waits.
``tests/test_lock_census.py`` checks each policy's full priority rule at
every conflict of randomized runs.

Only a suspended transaction can hold a conflicting lock, so the manager
keeps an **index of suspended holders**, not a lock table: each item maps
to the suspended transactions touching it, in install order.
``DatabaseServer`` installs a transaction when it suspends it and, at a
dispatch onto a non-empty index, calls :meth:`LockManager.acquire_all`.

No lock mode is stored, because the class decides it: queries only read,
and an update blindly writes one item.  Read/read never conflicts, so the
conflicting holders are the suspended holders of the *other* class.
Write/write never reaches the manager: the update register table
(:meth:`~repro.db.database.Database.register_update`) already dropped the
older update when the newer one arrived, the paper's write-write rule.
``tests/lock_reference.py`` keeps the general read/write lock table as the
oracle this index is tested against.
"""

from __future__ import annotations

import typing

from .transactions import Transaction


class AcquireResult(typing.NamedTuple):
    """What :meth:`LockManager.acquire_all` did.

    Immutable: every dispatch that restarts no one gets one shared
    instance.
    """

    #: Conflicting holders that were restarted, in install order.
    restarted: tuple[Transaction, ...] = ()
    #: Always empty: no requester waits (see the module docstring).  Kept
    #: because benchmark tooling reads it.
    blocking_holders: tuple[Transaction, ...] = ()


#: What every conflict-free dispatch returns.
_GRANTED = AcquireResult()


class LockManager:
    """The suspended-holder index and the 2PL-HP restart rule."""

    def __init__(self) -> None:
        #: item key -> its suspended holders in install order (a dict used
        #: as an ordered set); read-only outside this class
        self.table: dict[str, dict[Transaction, None]] = {}
        self.conflicts = 0
        self.restarts_caused = 0

    def __repr__(self) -> str:
        return (f"<LockManager locked_items={len(self.table)} "
                f"conflicts={self.conflicts}>")

    def install(self, txn: Transaction) -> None:
        """``txn`` leaves the CPU holding its items.  Idempotent: a
        resumed transaction keeps its entries while it runs."""
        table = self.table
        for key in txn.touched_items():
            holders = table.get(key)
            if holders is None:
                table[key] = {txn: None}
            else:
                holders[txn] = None

    def acquire_all(self, txn: Transaction) -> AcquireResult:
        """2PL-HP at the dispatch of ``txn``: restart every suspended
        holder of the other class on one of its items.

        One conflict is counted per (item, holder) pair.  The restarted
        holders' entries are removed here; the caller resets their
        progress and requeues them from the returned ``restarted`` tuple.
        """
        table = self.table
        is_query = txn.is_query
        losers: dict[Transaction, None] = {}
        for key in txn.touched_items():
            for holder in table.get(key, ()):
                if holder.is_query is not is_query:
                    self.conflicts += 1
                    losers[holder] = None
        if not losers:
            return _GRANTED
        for loser in losers:
            self.release_all(loser)
        self.restarts_caused += len(losers)
        return AcquireResult(tuple(losers))

    def release_all(self, txn: Transaction) -> None:
        """Remove ``txn``'s entries; a no-op for one that has none."""
        table = self.table
        for key in txn.touched_items():
            holders = table.get(key)
            if holders is not None:
                holders.pop(txn, None)
                if not holders:
                    del table[key]
