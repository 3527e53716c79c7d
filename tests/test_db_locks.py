"""Unit tests for the 2PL-HP lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import AcquireOutcome, LockManager, LockMode
from repro.db.transactions import Query, Update
from repro.qc.contracts import QualityContract
from tests.lock_reference import ReferenceLockManager


def query(items=("A",), at=0.0):
    return Query(arrival_time=at, exec_time=7.0, items=items,
                 qc=QualityContract.free())


def update(item="A", at=0.0):
    return Update(arrival_time=at, exec_time=2.0, item=item)


class TestGrants:
    def test_uncontended_read_grant(self):
        locks = LockManager()
        q = query(("A", "B"))
        result = locks.acquire_all(q, LockMode.READ)
        assert result.granted
        assert locks.locks_of(q) == {"A", "B"}
        assert locks.mode_of("A") is LockMode.READ

    def test_uncontended_write_grant(self):
        locks = LockManager()
        u = update("A")
        assert locks.acquire_all(u, LockMode.WRITE).granted
        assert locks.mode_of("A") is LockMode.WRITE

    def test_shared_reads_compatible(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        assert locks.acquire_all(q1, LockMode.READ).granted
        result = locks.acquire_all(q2, LockMode.READ).granted
        assert result
        assert locks.holders_of("A") == {q1, q2}
        assert locks.conflicts == 0

    def test_reacquire_own_locks_idempotent(self):
        """A resumed transaction re-acquires what it already holds."""
        locks = LockManager()
        q = query(("A", "B"))
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(q, LockMode.READ)
        assert result.granted
        assert result.restarted == ()
        assert locks.locks_of(q) == {"A", "B"}


class TestConflictResolution:
    def test_high_priority_requester_restarts_holder(self):
        locks = LockManager(has_priority=lambda r, h: True)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(u, LockMode.WRITE)
        assert result.granted
        assert result.restarted == (q,)
        assert locks.locks_of(q) == frozenset()
        assert locks.holders_of("A") == {u}
        assert locks.restarts_caused == 1

    def test_low_priority_requester_blocks(self):
        locks = LockManager(has_priority=lambda r, h: False)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(u, LockMode.WRITE)
        assert result.outcome is AcquireOutcome.BLOCKED
        assert result.blocking_holders == (q,)
        # Nothing acquired for the blocked requester.
        assert locks.locks_of(u) == frozenset()
        assert locks.holders_of("A") == {q}
        assert locks.blocks_caused == 1

    def test_write_blocks_read_when_holder_outranks(self):
        locks = LockManager(has_priority=lambda r, h: False)
        u = update("A")
        q = query(("A",))
        locks.acquire_all(u, LockMode.WRITE)
        result = locks.acquire_all(q, LockMode.READ)
        assert not result.granted

    def test_multiple_holders_all_restarted(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        assert result.granted
        assert set(result.restarted) == {q1, q2}

    def test_mixed_blockers_and_losers_block_wins(self):
        """If any conflicting holder outranks the requester, nothing is
        restarted and the requester blocks."""
        q1, q2 = query(("A",)), query(("A",))
        # q1 outranks everything, q2 outranks nothing.
        locks = LockManager(
            has_priority=lambda r, h: h is q2)
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        assert not result.granted
        assert q1 in result.blocking_holders
        # The weaker holder must NOT have been restarted.
        assert locks.holders_of("A") == {q1, q2}

    def test_conflict_counter_increments(self):
        locks = LockManager()
        locks.acquire_all(query(("A",)), LockMode.READ)
        locks.acquire_all(update("A"), LockMode.WRITE)
        assert locks.conflicts == 1


class TestRelease:
    def test_release_all_frees_keys(self):
        locks = LockManager()
        q = query(("A", "B"))
        locks.acquire_all(q, LockMode.READ)
        freed = locks.release_all(q)
        assert freed == {"A", "B"}
        assert locks.holders_of("A") == frozenset()
        assert locks.mode_of("A") is None

    def test_release_unknown_txn_is_noop(self):
        locks = LockManager()
        assert locks.release_all(query()) == frozenset()

    def test_release_one_shared_reader_keeps_entry(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        locks.release_all(q1)
        assert locks.holders_of("A") == {q2}

    def test_grant_after_release(self):
        locks = LockManager(has_priority=lambda r, h: False)
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        assert not locks.acquire_all(u, LockMode.WRITE).granted
        locks.release_all(q)
        assert locks.acquire_all(u, LockMode.WRITE).granted


class TestPriorityPredicateSwap:
    def test_set_priority_predicate(self):
        locks = LockManager(has_priority=lambda r, h: False)
        locks.acquire_all(query(("A",)), LockMode.READ)
        assert not locks.acquire_all(update("A"), LockMode.WRITE).granted
        locks.set_priority_predicate(lambda r, h: True)
        assert locks.acquire_all(update("A"), LockMode.WRITE).granted


class TestSharedGrantIsImmutable:
    """Every uncontended single-item grant is one shared object, so a
    caller must not be able to change what the next caller reads."""

    def test_fields_cannot_be_rebound(self):
        locks = LockManager()
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        for field, value in (("outcome", AcquireOutcome.BLOCKED),
                             ("restarted", (update("A"),)),
                             ("blocking_holders", (update("A"),)),
                             ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(result, field, value)
        again = locks.acquire_all(update("B"), LockMode.WRITE)
        assert again.granted
        assert again.restarted == () and again.blocking_holders == ()


KEYS = ("A", "B", "C", "D")
PREDICATES = {
    "always": lambda requester, holder: True,
    "never": lambda requester, holder: False,
    "updates-win": lambda requester, holder: (requester.is_update
                                              and holder.is_query),
}


class TestDifferentialAgainstReference:
    """The production manager (with its uncontended fast path) and the
    slow-path-only oracle in ``tests/lock_reference.py`` must agree on
    every observable after every step of any program."""

    @given(
        predicate=st.sampled_from(sorted(PREDICATES)),
        read_sets=st.lists(
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                     unique=True), min_size=1, max_size=4),
        write_keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
        program=st.lists(st.tuples(
            st.sampled_from(["acquire", "release", "restart"]),
            st.integers(min_value=0, max_value=7),
            st.sampled_from([None, LockMode.READ, LockMode.WRITE])),
            max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_observables_after_every_step(self, predicate, read_sets,
                                               write_keys, program):
        pool = ([query(tuple(items)) for items in read_sets]
                + [update(key) for key in write_keys])
        has_priority = PREDICATES[predicate]
        real = LockManager(has_priority)
        oracle = ReferenceLockManager(has_priority)
        for op, idx, forced_mode in program:
            txn = pool[idx % len(pool)]
            # Mostly the server's pairing (queries read, updates write),
            # sometimes the other mode to reach every compatibility cell.
            mode = forced_mode or (LockMode.READ if txn.is_query
                                   else LockMode.WRITE)
            if op != "acquire":
                assert real.release_all(txn) == oracle.release_all(txn)
            if op != "release":  # a restart is release + fresh request
                got = real.acquire_all(txn, mode)
                want = oracle.acquire_all(txn, mode)
                assert (got.granted, got.restarted,
                        got.blocking_holders) == want
            assert ((real.conflicts, real.restarts_caused,
                     real.blocks_caused)
                    == (oracle.conflicts, oracle.restarts_caused,
                        oracle.blocks_caused))
            for member in pool:
                assert real.locks_of(member) == oracle.locks_of(member)
            for key in KEYS:
                assert real.holders_of(key) == oracle.holders_of(key)
                assert real.mode_of(key) is oracle.mode_of(key)
