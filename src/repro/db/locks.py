"""Two-Phase Locking with High Priority (2PL-HP) lock manager.

2PL-HP (Abbott & Garcia-Molina) resolves a conflict by comparing transaction
priorities: when a requester has higher priority than a conflicting holder,
the holder is **restarted** (it releases its locks and loses its progress);
otherwise the requester **blocks** until the locks free up.

In this system (read-only queries, blind single-item updates):

* read/read never conflicts;
* read/write and write/read are the interesting cases — they arise when a
  preempted (suspended) transaction still holds locks while a newly scheduled
  one needs them;
* write/write cannot reach the lock manager at all, because the update
  register table (:meth:`~repro.db.database.Database.register_update`)
  already dropped the older update on arrival of the newer one — exactly the
  paper's write-write rule.

Priorities are *policy-defined*: the scheduler supplies a
``has_priority(requester, holder)`` predicate, so each scheduling policy
(UH, QH, QUTS, ...) induces its own conflict resolution, as in the paper.

Locks are acquired conservatively (a transaction's full read/write set is
known upfront from the trace) and held until commit, abort, or restart.
"""

from __future__ import annotations

import enum
import typing

from .transactions import Transaction

PriorityPredicate = typing.Callable[[Transaction, Transaction], bool]


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.READ and requested is LockMode.READ


class AcquireOutcome(enum.Enum):
    """Result of a lock-acquisition attempt."""

    #: All locks granted; the transaction may run.
    GRANTED = "granted"
    #: A higher-priority holder exists; the requester must wait.
    BLOCKED = "blocked"


class AcquireResult(typing.NamedTuple):
    """Outcome of :meth:`LockManager.acquire_all` plus its side effects.

    Immutable: the uncontended grant is one shared instance.
    """

    outcome: AcquireOutcome
    #: Lower-priority holders that were restarted to make room.
    restarted: tuple[Transaction, ...] = ()
    #: Higher-priority holders the requester is now waiting on.
    blocking_holders: tuple[Transaction, ...] = ()

    @property
    def granted(self) -> bool:
        return self.outcome is AcquireOutcome.GRANTED

    def __repr__(self) -> str:
        return (f"<AcquireResult {self.outcome.value} "
                f"restarted={len(self.restarted)} "
                f"blocked_on={len(self.blocking_holders)}>")


#: What every conflict-free acquisition returns.
_GRANTED = AcquireResult(AcquireOutcome.GRANTED)


class _LockEntry:
    __slots__ = ("mode", "holders")

    def __init__(self, mode: LockMode, holders: set[Transaction]) -> None:
        self.mode = mode
        self.holders = holders


class LockManager:
    """Tracks per-item locks and applies the 2PL-HP resolution rule."""

    def __init__(self, has_priority: PriorityPredicate | None = None) -> None:
        #: item key -> lock entry
        self._table: dict[str, _LockEntry] = {}
        #: txn -> set of keys it holds locks on
        self._held: dict[Transaction, set[str]] = {}
        #: Policy predicate: does `requester` outrank `holder`?  The default
        #: (always True) matches every policy in the paper, where the
        #: currently scheduled transaction is by construction the
        #: highest-priority one.
        self._has_priority: PriorityPredicate = (
            has_priority if has_priority is not None
            else (lambda requester, holder: True))
        self.conflicts = 0
        self.restarts_caused = 0
        self.blocks_caused = 0

    def __repr__(self) -> str:
        return (f"<LockManager locked_items={len(self._table)} "
                f"conflicts={self.conflicts}>")

    def set_priority_predicate(self, predicate: PriorityPredicate) -> None:
        self._has_priority = predicate

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
        """Try to lock the transaction's whole item set in ``mode``.

        Applies 2PL-HP: conflicting lower-priority holders are restarted
        (their locks released, their progress reset by the caller via the
        returned list); if *any* conflicting holder outranks the requester,
        nothing is acquired and the requester must block.
        """
        keys = txn.touched_items()
        if len(keys) == 1 and keys[0] not in self._table:
            # Uncontended single-item request (>99.9 % of a paper-scale
            # run): an absent entry means no holders, so there is nothing
            # to compare priorities against.
            self._table[keys[0]] = _LockEntry(mode, {txn})
            self._held.setdefault(txn, set()).update(keys)
            return _GRANTED

        # First pass: find conflicts and split them by priority.
        to_restart: list[Transaction] = []
        blockers: list[Transaction] = []
        for key in keys:
            entry = self._table.get(key)
            if entry is None or not entry.holders:
                continue
            if _compatible(entry.mode, mode) or entry.holders == {txn}:
                continue
            for holder in entry.holders:
                if holder is txn:
                    continue
                self.conflicts += 1
                if self._has_priority(txn, holder):
                    to_restart.append(holder)
                else:
                    blockers.append(holder)

        if blockers:
            self.blocks_caused += 1
            return AcquireResult(AcquireOutcome.BLOCKED,
                                 blocking_holders=tuple(dict.fromkeys(
                                     blockers)))

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
        return AcquireResult(AcquireOutcome.GRANTED, restarted=restarted)

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
