"""Unit tests for FIFO and the dual-queue (UH/QH) schedulers."""

import pytest

from repro.db.transactions import Query, Update
from repro.qc.contracts import QualityContract
from repro.scheduling import (FIFOScheduler, make_fifo_qh, make_fifo_uh,
                              make_qh, make_scheduler, make_uh)
from tests.lock_reference import lock_priority


def query(at=0.0, qosmax=10.0, rtmax=50.0):
    return Query(arrival_time=at, exec_time=5.0, items=("A",),
                 qc=QualityContract.step(qosmax, rtmax, 10.0, 1.0))


def update(at=0.0, item="A"):
    return Update(arrival_time=at, exec_time=1.0, item=item)


class TestFIFOScheduler:
    def test_combined_arrival_order(self):
        scheduler = FIFOScheduler()
        q = query(at=1.0)
        u = update(at=0.5)
        scheduler.submit_query(q)
        scheduler.submit_update(u)
        assert scheduler.next_transaction(2.0) is u
        assert scheduler.next_transaction(2.0) is q

    def test_never_preempts(self):
        scheduler = FIFOScheduler()
        running = query(at=0.0)
        assert not scheduler.preempts(running, update(at=1.0))
        assert not scheduler.preempts(update(at=0.0), query(at=1.0))

    def test_quantum_unbounded(self):
        scheduler = FIFOScheduler()
        assert scheduler.quantum(query(), 0.0) == float("inf")

    def test_pending_counts(self):
        scheduler = FIFOScheduler()
        scheduler.submit_query(query())
        scheduler.submit_update(update())
        scheduler.submit_update(update())
        assert scheduler.pending_queries() == 1
        assert scheduler.pending_updates() == 2
        assert scheduler.has_work()

    def test_requeue_dispatches_by_class(self):
        scheduler = FIFOScheduler()
        q = query()
        scheduler.requeue(q)
        assert scheduler.next_transaction(0.0) is q


class TestUH:
    def test_updates_first(self):
        scheduler = make_uh()
        q, u = query(at=0.0), update(at=5.0)
        scheduler.submit_query(q)
        scheduler.submit_update(u)
        assert scheduler.next_transaction(10.0) is u
        assert scheduler.next_transaction(10.0) is q

    def test_update_preempts_query(self):
        scheduler = make_uh()
        assert scheduler.preempts(query(), update())
        assert not scheduler.preempts(update(), query())
        assert not scheduler.preempts(query(), query())

    def test_lock_priority_favours_updates(self):
        # The 2PL-HP priority UH induces (the census oracle; the lock
        # manager itself restarts every conflicting holder).
        scheduler = make_uh()
        assert lock_priority(scheduler, update(), query())
        assert not lock_priority(scheduler, query(), update())
        assert lock_priority(scheduler, query(), query())

    def test_vrd_within_queries(self):
        scheduler = make_uh()
        weak = query(qosmax=1.0, rtmax=100.0)
        strong = query(qosmax=50.0, rtmax=50.0)
        scheduler.submit_query(weak)
        scheduler.submit_query(strong)
        assert scheduler.next_transaction(0.0) is strong


class TestQH:
    def test_queries_first(self):
        scheduler = make_qh()
        q, u = query(at=5.0), update(at=0.0)
        scheduler.submit_query(q)
        scheduler.submit_update(u)
        assert scheduler.next_transaction(10.0) is q
        assert scheduler.next_transaction(10.0) is u

    def test_query_preempts_update(self):
        scheduler = make_qh()
        assert scheduler.preempts(update(), query())
        assert not scheduler.preempts(query(), update())

    def test_lock_priority_favours_queries(self):
        scheduler = make_qh()
        assert lock_priority(scheduler, query(), update())
        assert not lock_priority(scheduler, update(), query())


class TestNaiveVariants:
    def test_fifo_uh_uses_fcfs_queries(self):
        scheduler = make_fifo_uh()
        late_but_valuable = query(at=5.0, qosmax=100.0)
        early = query(at=1.0, qosmax=1.0)
        scheduler.submit_query(late_but_valuable)
        scheduler.submit_query(early)
        assert scheduler.next_transaction(10.0) is early

    def test_fifo_qh_name(self):
        assert make_fifo_qh().name == "FIFO-QH"
        assert make_fifo_uh().name == "FIFO-UH"


class TestFactory:
    def test_make_scheduler_names(self):
        for name in ("FIFO", "UH", "QH", "QUTS", "FIFO-UH", "FIFO-QH"):
            assert make_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheduler("LIFO")

    def test_quts_kwargs(self):
        scheduler = make_scheduler("QUTS", tau=5.0, omega=500.0)
        assert scheduler.tau == 5.0
        assert scheduler.omega == 500.0

    def test_kwargs_rejected_for_fixed_policies(self):
        with pytest.raises(ValueError):
            make_scheduler("UH", tau=5.0)

    def test_invalid_high_class(self):
        from repro.scheduling.dual import DualQueueScheduler
        with pytest.raises(ValueError):
            DualQueueScheduler("neither")  # type: ignore[arg-type]
