"""Unit tests for the 2PL-HP lock manager: a transaction's items are
installed when it is suspended and checked when another is dispatched."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import LockManager
from repro.db.transactions import Query, Update
from repro.qc.contracts import QualityContract
from tests.lock_reference import LockMode, ReferenceLockManager


def query(items=("A",), at=0.0):
    return Query(arrival_time=at, exec_time=7.0, items=items,
                 qc=QualityContract.free())


def update(item="A", at=0.0):
    return Update(arrival_time=at, exec_time=2.0, item=item)


def index(locks):
    """The index as item -> holders in install order."""
    return {key: list(holders) for key, holders in locks.table.items()}


class TestGrants:
    def test_uncontended_read_grant(self):
        locks = LockManager()
        q = query(("A", "B"))
        assert locks.acquire_all(q).restarted == ()
        assert locks.table == {}  # dispatch installs nothing
        locks.install(q)
        assert index(locks) == {"A": [q], "B": [q]}

    def test_uncontended_write_grant(self):
        locks = LockManager()
        u = update("A")
        assert locks.acquire_all(u).restarted == ()
        locks.install(u)
        assert index(locks) == {"A": [u]}

    def test_shared_reads_compatible(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.install(q1)
        assert locks.acquire_all(q2).restarted == ()
        locks.install(q2)
        assert index(locks) == {"A": [q1, q2]}
        assert locks.conflicts == 0

    def test_reacquire_own_locks_idempotent(self):
        """A resumed transaction is still installed: its dispatch
        conflicts with no one and its next suspension changes nothing."""
        locks = LockManager()
        q1, q2 = query(("A", "B")), query(("B",))
        locks.install(q1)
        locks.install(q2)
        assert locks.acquire_all(q1).restarted == ()
        locks.install(q1)
        assert index(locks) == {"A": [q1], "B": [q1, q2]}


class TestConflictResolution:
    """The dispatched transaction outranks every holder off the CPU, so
    every holder of the other class on its items is restarted."""

    def test_high_priority_requester_restarts_holder(self):
        locks = LockManager()
        q = query(("A",))
        u = update("A")
        locks.install(q)
        result = locks.acquire_all(u)
        assert result.restarted == (q,)
        assert result.blocking_holders == ()
        assert locks.table == {}
        assert locks.restarts_caused == 1

    def test_read_requester_restarts_write_holder(self):
        locks = LockManager()
        u, other = update("A"), update("C")
        q = query(("A", "B"))
        locks.install(u)
        locks.install(other)
        result = locks.acquire_all(q)
        assert result.restarted == (u,)
        assert index(locks) == {"C": [other]}
        assert locks.restarts_caused == 1

    def test_multiple_holders_all_restarted(self):
        """Restarted in install order, never in hash order."""
        for order in (slice(None), slice(None, None, -1)):
            locks = LockManager()
            holders = [query(("A",)) for _ in range(5)][order]
            for q in holders:
                locks.install(q)
            result = locks.acquire_all(update("A"))
            assert result.restarted == tuple(holders)
            assert locks.table == {}
            assert locks.restarts_caused == 5

    def test_conflict_counter_increments(self):
        """One conflict per (item, holder) pair; one restart per holder."""
        locks = LockManager()
        locks.install(update("A"))
        locks.install(update("B"))
        locks.acquire_all(query(("A", "B", "C")))
        assert (locks.conflicts, locks.restarts_caused) == (2, 2)


class TestRelease:
    def test_release_all_frees_keys(self):
        locks = LockManager()
        q = query(("A", "B"))
        locks.install(q)
        locks.release_all(q)
        assert locks.table == {}

    def test_release_unknown_txn_is_noop(self):
        locks = LockManager()
        locks.release_all(query())
        assert locks.table == {}
        q = query(("A",))
        locks.install(q)
        locks.release_all(query(("A", "B")))
        assert index(locks) == {"A": [q]}

    def test_release_one_shared_reader_keeps_entry(self):
        locks = LockManager()
        q1, q2 = query(("A",)), query(("A",))
        locks.install(q1)
        locks.install(q2)
        locks.release_all(q1)
        assert index(locks) == {"A": [q2]}

    def test_grant_after_release(self):
        """A released holder is no longer a conflict: the next dispatch
        restarts no one."""
        locks = LockManager()
        q = query(("A",))
        u = update("A")
        locks.install(q)
        locks.release_all(q)
        assert locks.acquire_all(u).restarted == ()
        assert (locks.conflicts, locks.restarts_caused) == (0, 0)


class TestSharedGrantIsImmutable:
    """Every conflict-free dispatch gets one shared result, so a caller
    must not be able to change what the next caller reads."""

    def test_fields_cannot_be_rebound(self):
        locks = LockManager()
        result = locks.acquire_all(update("A"))
        for field, value in (("restarted", (update("A"),)),
                             ("blocking_holders", (update("A"),)),
                             ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(result, field, value)
        again = locks.acquire_all(update("B"))
        assert again is result
        assert again.restarted == () and again.blocking_holders == ()


KEYS = ("A", "B", "C", "D")


class TestDifferentialAgainstReference:
    """The index and the general read/write lock table of
    ``tests/lock_reference.py`` agree on every observable after every
    step of any one-CPU program.

    Each step dispatches one transaction and ends its turn on the CPU.
    The index is checked only on a non-empty table, as the server does;
    the reference acquires at every dispatch.  A suspension installs into
    the index and is mirrored as a reference acquire that must restart no
    one.  Commit, restart and the release of an idle holder (supersede,
    drop, crash) release both.  Each key has at most one update, because
    the register table supersedes an older update before a newer one can
    reach the manager.
    """

    @given(
        read_sets=st.lists(
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                     unique=True), min_size=1, max_size=4),
        write_keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4,
                            unique=True),
        program=st.lists(st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(["suspend", "commit", "release-idle"]),
            st.integers(min_value=0, max_value=7)),
            max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_same_observables_after_every_step(self, read_sets,
                                               write_keys, program):
        pool = ([query(tuple(items)) for items in read_sets]
                + [update(key) for key in write_keys])
        real = LockManager()
        oracle = ReferenceLockManager()
        for idx, outcome, idle_idx in program:
            txn = pool[idx % len(pool)]
            want = oracle.acquire_all(txn, LockMode.of(txn))
            if real.table:
                got = real.acquire_all(txn)
                assert set(got.restarted) == set(want)
                assert len(got.restarted) == len(want)
                assert got.blocking_holders == ()
            else:
                assert want == ()
            if outcome == "suspend":
                real.install(txn)
                assert oracle.acquire_all(txn, LockMode.of(txn)) == ()
            else:
                real.release_all(txn)
                oracle.release_all(txn)
            if outcome == "release-idle":
                idle = pool[idle_idx % len(pool)]
                real.release_all(idle)
                oracle.release_all(idle)
            assert ((real.conflicts, real.restarts_caused)
                    == (oracle.conflicts, oracle.restarts_caused))
            for key in KEYS:
                assert (set(real.table.get(key, ()))
                        == oracle.holders_of(key))
