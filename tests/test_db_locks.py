"""Unit tests for the 2PL-HP lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import LockManager, LockMode
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
        assert result.restarted == ()
        assert locks.locks_of(q) == {"A", "B"}
        assert locks.mode_of("A") is LockMode.READ

    def test_uncontended_write_grant(self):
        locks = LockManager()
        u = update("A")
        assert locks.acquire_all(u, LockMode.WRITE).restarted == ()
        assert locks.locks_of(u) == {"A"}
        assert locks.mode_of("A") is LockMode.WRITE

    def test_shared_reads_compatible(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        assert locks.acquire_all(q1, LockMode.READ).restarted == ()
        assert locks.acquire_all(q2, LockMode.READ).restarted == ()
        assert locks.holders_of("A") == {q1, q2}
        assert locks.conflicts == 0

    def test_reacquire_own_locks_idempotent(self):
        """A resumed transaction re-acquires what it already holds."""
        locks = LockManager()
        q = query(("A", "B"))
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(q, LockMode.READ)
        assert result.restarted == ()
        assert locks.locks_of(q) == {"A", "B"}


class TestConflictResolution:
    """The dispatched requester outranks every holder off the CPU, so
    every conflict restarts the holder and the request is granted."""

    def test_high_priority_requester_restarts_holder(self):
        locks = LockManager()
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        result = locks.acquire_all(u, LockMode.WRITE)
        assert result.restarted == (q,)
        assert result.blocking_holders == ()
        assert locks.locks_of(q) == frozenset()
        assert locks.holders_of("A") == {u}
        assert locks.restarts_caused == 1

    def test_read_requester_restarts_write_holder(self):
        locks = LockManager()
        u = update("A")
        q = query(("A", "B"))
        locks.acquire_all(u, LockMode.WRITE)
        result = locks.acquire_all(q, LockMode.READ)
        assert result.restarted == (u,)
        assert locks.locks_of(u) == frozenset()
        assert locks.locks_of(q) == {"A", "B"}
        assert locks.mode_of("A") is LockMode.READ
        assert locks.restarts_caused == 1

    def test_multiple_holders_all_restarted(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.acquire_all(q1, LockMode.READ)
        locks.acquire_all(q2, LockMode.READ)
        u = update("A")
        result = locks.acquire_all(u, LockMode.WRITE)
        assert set(result.restarted) == {q1, q2}
        assert locks.holders_of("A") == {u}
        assert locks.restarts_caused == 2

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
        """A released holder is no longer a conflict: the next request
        is granted without restarting anyone."""
        locks = LockManager()
        q = query(("A",))
        u = update("A")
        locks.acquire_all(q, LockMode.READ)
        locks.release_all(q)
        assert locks.acquire_all(u, LockMode.WRITE).restarted == ()
        assert (locks.conflicts, locks.restarts_caused) == (0, 0)
        assert locks.holders_of("A") == {u}


class TestSharedGrantIsImmutable:
    """Every uncontended single-item grant is one shared object, so a
    caller must not be able to change what the next caller reads."""

    def test_fields_cannot_be_rebound(self):
        locks = LockManager()
        result = locks.acquire_all(update("A"), LockMode.WRITE)
        for field, value in (("restarted", (update("A"),)),
                             ("blocking_holders", (update("A"),)),
                             ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(result, field, value)
        again = locks.acquire_all(update("B"), LockMode.WRITE)
        assert again is result
        assert again.restarted == () and again.blocking_holders == ()


KEYS = ("A", "B", "C", "D")


class TestDifferentialAgainstReference:
    """The production manager (with its uncontended fast path) and the
    slow-path-only oracle in ``tests/lock_reference.py`` must agree on
    every observable after every step of any program."""

    @given(
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
    def test_same_observables_after_every_step(self, read_sets,
                                               write_keys, program):
        pool = ([query(tuple(items)) for items in read_sets]
                + [update(key) for key in write_keys])
        real = LockManager()
        oracle = ReferenceLockManager()
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
                assert got.restarted == want
                assert got.blocking_holders == ()
            assert ((real.conflicts, real.restarts_caused)
                    == (oracle.conflicts, oracle.restarts_caused))
            for member in pool:
                assert real.locks_of(member) == oracle.locks_of(member)
            for key in KEYS:
                assert real.holders_of(key) == oracle.holders_of(key)
                assert real.mode_of(key) is oracle.mode_of(key)
