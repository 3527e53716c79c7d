"""Reference 2PL-HP lock manager and the policies' 2PL-HP priorities.

``repro.db.locks.LockManager`` keeps only an index of suspended holders,
because on one CPU nothing else can conflict.  :class:`ReferenceLockManager`
is the general read/write lock table it replaced: every request walks both
passes (find the conflicting holders, then grant), and the running
transaction holds its locks from dispatch on.  The differential tests in
``test_db_locks.py`` and ``test_lock_census.py`` drive both in lockstep and
hold the index to it.  It shares no code with the production module.

The production manager restarts every conflicting holder, because the
transaction the scheduler dispatched outranks every holder that is off
the CPU.  :func:`lock_priority` is the full 2PL-HP priority rule each
policy induces ("does ``requester`` outrank ``holder``?");
``test_lock_census.py`` asserts it holds at every conflict of real runs,
which is what licenses the one-rule manager.
"""

import enum

from repro.scheduling.dual import DualQueueScheduler
from repro.scheduling.quts import QUTSScheduler


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"

    @classmethod
    def of(cls, txn):
        """The mode the server's pairing gives ``txn``: queries read,
        updates write."""
        return cls.READ if txn.is_query else cls.WRITE


class ReferenceLockManager:
    """Every request walks both passes; results are plain tuples."""

    def __init__(self):
        self._table = {}   # key -> [mode, set of holders]
        self._held = {}    # txn -> set of keys
        self.conflicts = 0
        self.restarts_caused = 0

    def holders_of(self, key):
        return frozenset(self._table[key][1]) if key in self._table \
            else frozenset()

    def acquire_all(self, txn, mode):
        """Grants the request; returns the restarted holders."""
        keys = txn.touched_items()
        to_restart = []
        for key in keys:
            if key not in self._table:
                continue
            held_mode, holders = self._table[key]
            both_read = held_mode is LockMode.READ and mode is LockMode.READ
            if both_read or holders == {txn}:
                continue
            for holder in holders:
                if holder is txn:
                    continue
                self.conflicts += 1
                to_restart.append(holder)
        restarted = tuple(dict.fromkeys(to_restart))
        for loser in restarted:
            self.release_all(loser)
            self.restarts_caused += 1
        for key in keys:
            entry = self._table.setdefault(key, [mode, set()])
            if not entry[1] or mode is LockMode.WRITE:
                entry[0] = mode
            entry[1].add(txn)
        self._held.setdefault(txn, set()).update(keys)
        return restarted

    def release_all(self, txn):
        keys = self._held.pop(txn, set())
        for key in keys:
            holders = self._table[key][1]
            holders.discard(txn)
            if not holders:
                del self._table[key]
        return frozenset(keys)


# ----------------------------------------------------------------------
# The 2PL-HP priority each policy induces
# ----------------------------------------------------------------------
def default_lock_priority(scheduler, requester, holder):
    """In every policy of the paper the transaction holding the CPU is the
    highest-priority one, so the default is True (restart the holder)."""
    return True


def dual_lock_priority(scheduler, requester, holder):
    """UH / QH: fixed class priority; within a class the scheduled txn
    wins."""
    if requester.is_update and holder.is_query:
        return scheduler.high == "update"
    if requester.is_query and holder.is_update:
        return scheduler.high == "query"
    return True


def quts_lock_priority(scheduler, requester, holder):
    """QUTS: the class owning the current slot wins 2PL-HP conflicts."""
    state = scheduler.current_state
    requester_owns_slot = (
        (requester.is_query and state == "query")
        or (requester.is_update and state == "update"))
    if requester_owns_slot:
        return True
    holder_owns_slot = (
        (holder.is_query and state == "query")
        or (holder.is_update and state == "update"))
    return not holder_owns_slot


def lock_priority(scheduler, requester, holder):
    """Does ``requester`` outrank ``holder`` under ``scheduler``'s
    policy?"""
    if isinstance(scheduler, QUTSScheduler):
        rule = quts_lock_priority
    elif isinstance(scheduler, DualQueueScheduler):
        rule = dual_lock_priority
    else:
        rule = default_lock_priority
    return rule(scheduler, requester, holder)
