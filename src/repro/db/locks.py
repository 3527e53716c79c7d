"""Two-Phase Locking with High Priority (2PL-HP) lock manager.

2PL-HP (Abbott & Garcia-Molina) compares priorities at a conflict: a
requester that outranks the holder **restarts** it (the holder releases its
locks and loses its progress); an outranked requester would wait.

On the paper's single CPU no requester is ever outranked.  The requester is
the transaction the scheduler has just dispatched, and every conflicting
holder is one the CPU has left (after a quantum expiry or a preemption) and
put back in its queue.  Each policy dispatches a class only when no
higher-priority work is queued: UH and QH serve their low class only on an
empty high queue, QUTS only the class owning the current slot (switching
the slot when it falls back), and FIFO never suspends at all.  So one rule
suffices: **every conflicting holder is restarted**, and no requester ever
waits.  ``tests/test_lock_census.py`` checks each policy's full priority
rule at every conflict of randomized runs.

In this system (read-only queries, blind single-item updates):

* read/read never conflicts;
* read/write and write/read are the interesting cases — they arise when a
  suspended transaction still holds locks while a newly dispatched one
  needs them;
* write/write cannot reach the lock manager at all, because the update
  register table (:meth:`~repro.db.database.Database.register_update`)
  already dropped the older update on arrival of the newer one — exactly the
  paper's write-write rule.

Locks are acquired conservatively (a transaction's full read/write set is
known upfront from the trace) and held until commit, abort, or restart.
"""

from __future__ import annotations

import enum
import typing

from .transactions import Transaction


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.READ and requested is LockMode.READ


class AcquireResult(typing.NamedTuple):
    """What :meth:`LockManager.acquire_all` did besides granting.

    Immutable: every grant that restarts no one is one shared instance.
    """

    #: Conflicting holders that were restarted to make room.
    restarted: tuple[Transaction, ...] = ()
    #: Always empty: no requester waits (see the module docstring).  Kept
    #: because benchmark tooling reads it.
    blocking_holders: tuple[Transaction, ...] = ()


#: What every conflict-free acquisition returns.
_GRANTED = AcquireResult()


class _LockEntry:
    __slots__ = ("mode", "holders")

    def __init__(self, mode: LockMode, holders: set[Transaction]) -> None:
        self.mode = mode
        self.holders = holders


class LockManager:
    """Tracks per-item locks and applies the 2PL-HP restart rule."""

    def __init__(self) -> None:
        #: item key -> lock entry
        self._table: dict[str, _LockEntry] = {}
        #: txn -> set of keys it holds locks on
        self._held: dict[Transaction, set[str]] = {}
        self.conflicts = 0
        self.restarts_caused = 0

    def __repr__(self) -> str:
        return (f"<LockManager locked_items={len(self._table)} "
                f"conflicts={self.conflicts}>")

    # ------------------------------------------------------------------
    def locks_of(self, txn: Transaction) -> frozenset[str]:
        """The keys ``txn`` currently holds locks on."""
        return frozenset(self._held.get(txn, ()))

    def holders_of(self, key: str) -> frozenset[Transaction]:
        entry = self._table.get(key)
        return frozenset(entry.holders) if entry else frozenset()

    def mode_of(self, key: str) -> LockMode | None:
        entry = self._table.get(key)
        return entry.mode if entry else None

    # ------------------------------------------------------------------
    def acquire_all(self, txn: Transaction,
                    mode: LockMode) -> AcquireResult:
        """Lock the transaction's whole item set in ``mode``.

        Every conflicting holder is restarted: its locks are released
        here, and the caller resets its progress and requeues it from the
        returned ``restarted`` tuple.  The request is always granted.
        """
        keys = txn.touched_items()
        if len(keys) == 1 and keys[0] not in self._table:
            # Uncontended single-item request (>99.9 % of a paper-scale
            # run): an absent entry means no holders to restart.
            self._table[keys[0]] = _LockEntry(mode, {txn})
            self._held.setdefault(txn, set()).update(keys)
            return _GRANTED

        # First pass: find the conflicting holders.
        to_restart: list[Transaction] = []
        for key in keys:
            entry = self._table.get(key)
            if entry is None or not entry.holders:
                continue
            if _compatible(entry.mode, mode) or entry.holders == {txn}:
                continue
            for holder in entry.holders:
                if holder is not txn:
                    self.conflicts += 1
                    to_restart.append(holder)

        # Restart the losers (release their locks); the caller resets their
        # progress and requeues them.
        restarted = tuple(dict.fromkeys(to_restart))
        for loser in restarted:
            self.release_all(loser)
            self.restarts_caused += 1

        # Second pass: grant.
        for key in keys:
            entry = self._table.get(key)
            if entry is None:
                entry = _LockEntry(mode, set())
                self._table[key] = entry
            if not entry.holders:
                entry.mode = mode
            entry.holders.add(txn)
            if mode is LockMode.WRITE:
                entry.mode = LockMode.WRITE
        self._held.setdefault(txn, set()).update(keys)
        return AcquireResult(restarted) if restarted else _GRANTED

    def release_all(self, txn: Transaction) -> frozenset[str]:
        """Release every lock held by ``txn``; returns the freed keys."""
        keys = self._held.pop(txn, None)
        if keys is None:
            return frozenset()
        for key in keys:
            entry = self._table.get(key)
            if entry is None:
                continue
            entry.holders.discard(txn)
            if not entry.holders:
                del self._table[key]
        return frozenset(keys)
