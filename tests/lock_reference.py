"""Reference 2PL-HP lock manager: the two-pass algorithm and nothing else.

``repro.db.locks.LockManager`` answers the uncontended single-item case
on a fast path; this oracle has no such path, so the differential tests
in ``test_db_locks.py`` can hold the production manager to it step by
step.  It shares no code with the production module beyond ``LockMode``.
"""

from repro.db.locks import LockMode


class ReferenceLockManager:
    """Every request walks both passes; results are plain tuples."""

    def __init__(self, has_priority):
        self._table = {}   # key -> [mode, set of holders]
        self._held = {}    # txn -> set of keys
        self._has_priority = has_priority
        self.conflicts = 0
        self.restarts_caused = 0
        self.blocks_caused = 0

    def locks_of(self, txn):
        return frozenset(self._held.get(txn, ()))

    def holders_of(self, key):
        return frozenset(self._table[key][1]) if key in self._table \
            else frozenset()

    def mode_of(self, key):
        return self._table[key][0] if key in self._table else None

    def acquire_all(self, txn, mode):
        """Returns ``(granted, restarted, blocking_holders)``."""
        keys = txn.touched_items()
        to_restart, blockers = [], []
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
                if self._has_priority(txn, holder):
                    to_restart.append(holder)
                else:
                    blockers.append(holder)
        if blockers:
            self.blocks_caused += 1
            return False, (), tuple(dict.fromkeys(blockers))
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
        return True, restarted, ()

    def release_all(self, txn):
        keys = self._held.pop(txn, set())
        for key in keys:
            holders = self._table[key][1]
            holders.discard(txn)
            if not holders:
                del self._table[key]
        return frozenset(keys)
