"""Unit tests for the lazy-invalidation transaction queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.transactions import Query, TxnStatus, Update
from repro.qc.contracts import QualityContract
from repro.scheduling.priorities import FCFSPriority, VRDPriority
from repro.scheduling.queues import (COMPACT_MIN_ENTRIES,
                                     TransactionQueue)


def update(at=0.0, item="A"):
    return Update(arrival_time=at, exec_time=1.0, item=item)


def query(at=0.0, qosmax=10.0, rtmax=50.0):
    return Query(arrival_time=at, exec_time=5.0, items=("A",),
                 qc=QualityContract.step(qosmax, rtmax, 0.0, 1.0))


def pop_all(q):
    """Pop until empty; the live members in pop order."""
    popped = []
    while (txn := q.pop()) is not None:
        popped.append(txn)
    return popped


class TestBasicOperations:
    def test_fifo_order(self):
        q = TransactionQueue(FCFSPriority())
        first, second = update(at=1.0), update(at=2.0)
        q.push(second)
        q.push(first)
        assert q.pop() is first
        assert q.pop() is second
        assert q.pop() is None

    def test_vrd_order(self):
        q = TransactionQueue(VRDPriority())
        cheap = query(qosmax=1.0, rtmax=100.0)    # VRD 0.01
        valuable = query(qosmax=50.0, rtmax=50.0)  # VRD 1.0
        q.push(cheap)
        q.push(valuable)
        assert q.pop() is valuable


class TestInvalidation:
    def test_dead_transactions_skipped_at_pop(self):
        q = TransactionQueue(FCFSPriority())
        dead, alive = update(at=1.0), update(at=2.0)
        q.push(dead)
        q.push(alive)
        dead.status = TxnStatus.DROPPED_SUPERSEDED
        assert q.pop() is alive
        assert q.pop() is None
        assert len(q) == 0

    def test_len_counts_only_live_members(self):
        q = TransactionQueue(FCFSPriority())
        dead, alive = update(at=1.0), update(at=2.0)
        q.push(dead)
        q.push(alive)
        dead.status = TxnStatus.DROPPED_SUPERSEDED
        assert len(q) == 1

    def test_dead_push_ignored(self):
        q = TransactionQueue(FCFSPriority())
        dead = update()
        dead.status = TxnStatus.COMMITTED
        q.push(dead)
        assert q.pop() is None


class TestMembership:
    def test_double_push_is_single_entry(self):
        q = TransactionQueue(FCFSPriority())
        txn = update()
        q.push(txn)
        q.push(txn)
        assert q.pop() is txn
        assert q.pop() is None

    def test_push_after_pop_reenters(self):
        q = TransactionQueue(FCFSPriority())
        txn = update()
        q.push(txn)
        assert q.pop() is txn
        q.push(txn)
        assert q.pop() is txn

    def test_approximate_len_includes_dead(self):
        q = TransactionQueue(FCFSPriority())
        dead = update()
        q.push(dead)
        dead.status = TxnStatus.COMMITTED
        assert q.approximate_len() == 1
        assert len(q) == 0


class TestLiveCounts:
    """The O(1) counters must agree with an exhaustive scan, always.

    Regression: ``__len__`` used to scan the heap counting entries that
    were members *and* alive, while deaths-in-queue (superseded updates)
    left membership intact — so ``len(q)`` drifted from the membership
    set until the dead entry happened to be popped."""

    @given(st.lists(st.tuples(
        st.sampled_from(["push", "pop", "kill"]),
        st.integers(min_value=0, max_value=11)), max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_len_matches_exact_scan(self, ops):
        q = TransactionQueue(FCFSPriority())
        pool = [update(at=float(k)) if k % 2 else query(at=float(k))
                for k in range(12)]
        # The oracle is the queue's observable contract, not its
        # representation: queued = pushed while alive, and not since
        # popped or killed.
        queued = set()
        for op, idx in ops:
            txn = pool[idx]
            if op == "push":
                q.push(txn)
                if txn.alive:
                    queued.add(txn)
            elif op == "pop":
                head = min(queued, key=lambda t: t.arrival_time,
                           default=None)
                assert q.pop() is head
                queued.discard(head)
            elif txn.alive:  # kill: death while (possibly) queued
                txn.status = TxnStatus.DROPPED_SUPERSEDED
                queued.discard(txn)
            assert len(q) == len(queued)
            assert q.live_queries == sum(t.is_query for t in queued)
            assert q.live_updates == sum(t.is_update for t in queued)
        assert pop_all(q) == sorted(queued, key=lambda t: t.arrival_time)

    def test_death_in_queue_updates_len_immediately(self):
        q = TransactionQueue(FCFSPriority())
        txns = [update(at=float(k)) for k in range(5)]
        for txn in txns:
            q.push(txn)
        txns[2].status = TxnStatus.DROPPED_SUPERSEDED
        assert len(q) == 4
        assert q.live_updates == 4

    def test_counts_split_by_class(self):
        q = TransactionQueue(FCFSPriority())
        q.push(query(at=0.0))
        q.push(update(at=1.0))
        q.push(update(at=2.0))
        assert (q.live_queries, q.live_updates) == (1, 2)
        assert q.pop().is_query
        assert (q.live_queries, q.live_updates) == (0, 2)


class TestCompaction:
    def test_dead_backlog_is_swept(self):
        q = TransactionQueue(FCFSPriority())
        txns = [update(at=float(k)) for k in range(3 * COMPACT_MIN_ENTRIES)]
        for txn in txns:
            q.push(txn)
        for txn in txns[:-4]:  # kill all but the last four
            txn.status = TxnStatus.DROPPED_SUPERSEDED
        assert len(q) == 4
        # The heap was compacted: the dead backlog cannot exceed the
        # small-heap threshold once the live population collapses.
        assert q.approximate_len() < COMPACT_MIN_ENTRIES

    def test_compaction_preserves_pop_order(self):
        q = TransactionQueue(FCFSPriority())
        txns = [update(at=float(k)) for k in range(2 * COMPACT_MIN_ENTRIES)]
        for txn in txns:
            q.push(txn)
        survivors = txns[::7]
        for txn in txns:
            if txn not in survivors:
                txn.status = TxnStatus.DROPPED_SUPERSEDED
        assert pop_all(q) == survivors
