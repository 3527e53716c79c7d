"""Edge-case tests for the database server: lock blocking, stale
interrupts, the queue sampler, and finalize with in-flight state."""

import pytest

from repro.db.database import Database
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, TxnStatus, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.scheduling import make_qh, make_uh
from repro.scheduling.base import Scheduler
from repro.scheduling.dual import DualQueueScheduler
from repro.sim import Environment
from repro.sim.rng import StreamRegistry


def step_qc(qosmax=10.0, rtmax=50.0, qodmax=10.0, lifetime=1e6):
    return QualityContract.step(qosmax, rtmax, qodmax, 1.0,
                                lifetime=lifetime)


def at(env, time, fn, *args):
    def proc(env):
        if time > env.now:
            yield env.timeout(time - env.now)
        fn(*args)
        return None
        yield  # pragma: no cover

    env.process(proc(env))


def build(scheduler, **config_kwargs):
    env = Environment()
    ledger = ProfitLedger()
    config = ServerConfig(class_switch_overhead=0.0, **config_kwargs)
    server = DatabaseServer(env, Database(), scheduler, ledger,
                            StreamRegistry(0), config=config)
    return env, server, ledger


class _BlockingUH(DualQueueScheduler):
    """UH whose lock predicate makes *everyone* block instead of
    restarting — exercises the server's BLOCK / unblock path."""

    name = "UH-blocking"

    def __init__(self) -> None:
        super().__init__("update")

    def has_lock_priority(self, requester, holder):
        return False


class TestBlockingPath:
    def test_blocked_update_waits_for_lock_release(self):
        env, server, ledger = build(_BlockingUH())
        # Query takes read lock on A; a conflicting update arrives and,
        # having no priority, must block until the query commits.
        query = Query(0.0, 7.0, ("A",), step_qc())
        update = Update(1.0, 2.0, "A")
        at(env, 0.0, server.submit_query, query)
        at(env, 1.0, server.submit_update, update)
        env.run(until=100.0)
        assert query.status is TxnStatus.COMMITTED
        assert update.status is TxnStatus.COMMITTED
        assert query.restarts == 0  # never restarted: requester blocked
        # The update preempted the query's CPU (UH) but then blocked on
        # the lock; the query resumed, committed, then the update ran.
        assert update.finish_time > query.finish_time
        assert server.lock_stats["blocks_caused"] >= 1

    def test_blocked_txn_unfinished_at_horizon(self):
        env, server, ledger = build(_BlockingUH())
        query = Query(0.0, 7.0, ("A",), step_qc())
        update = Update(1.0, 2.0, "A")
        at(env, 0.0, server.submit_query, query)
        at(env, 1.0, server.submit_update, update)
        env.run(until=3.0)  # stop while the update is blocked
        server.finalize()
        assert ledger.counters.value("updates_unfinished") == 1


class TestStaleInterrupts:
    def test_superseded_interrupt_for_other_txn_is_ignored(self):
        """An update is superseded while a *different* transaction runs;
        the running one must not be disturbed."""
        env, server, ledger = build(make_qh())
        query = Query(0.0, 7.0, ("B",), step_qc())
        old = Update(1.0, 2.0, "A", value=1.0)
        new = Update(2.0, 2.0, "A", value=2.0)
        at(env, 0.0, server.submit_query, query)
        at(env, 1.0, server.submit_update, old)
        at(env, 2.0, server.submit_update, new)
        env.run(until=100.0)
        assert query.status is TxnStatus.COMMITTED
        assert query.finish_time == pytest.approx(7.0)
        assert query.restarts == 0

    def test_preempt_interrupt_revalidated(self):
        """A preemption raised for an arrival that dies (superseded)
        before delivery must not suspend the running query."""
        env, server, __ = build(make_uh())
        query = Query(0.0, 7.0, ("X",), step_qc())
        at(env, 0.0, server.submit_query, query)
        # Two updates on the same item at the same instant: the first
        # triggers a preempt-interrupt but is superseded by the second in
        # the same timestamp; the executor re-validates and keeps going
        # until the (second) valid preemption is handled.
        at(env, 3.0, server.submit_update, Update(3.0, 2.0, "A", value=1.0))
        at(env, 3.0, server.submit_update, Update(3.0, 2.0, "A", value=2.0))
        env.run(until=100.0)
        assert query.status is TxnStatus.COMMITTED
        # Only one surviving update ran: query done at 7 + 2 = 9.
        assert query.finish_time == pytest.approx(9.0)


class TestIdleBehaviour:
    def test_server_idles_and_wakes(self):
        env, server, ledger = build(make_uh())
        at(env, 50.0, server.submit_update, Update(50.0, 2.0, "A"))
        env.run(until=100.0)
        assert ledger.counters.value("updates_applied") == 1

    def test_empty_run_finalize_is_clean(self):
        env, server, ledger = build(make_uh())
        env.run(until=10.0)
        server.finalize()
        assert ledger.counters.as_dict() == {}


class TestLockStats:
    def test_lock_stats_exposed(self):
        env, server, __ = build(make_uh())
        at(env, 0.0, server.submit_query,
           Query(0.0, 7.0, ("A",), step_qc()))
        at(env, 3.0, server.submit_update, Update(3.0, 2.0, "A"))
        env.run(until=100.0)
        stats = server.lock_stats
        assert stats["conflicts"] >= 1
        assert stats["restarts_caused"] >= 1
        assert "blocks_caused" in stats


class TestNotifyHookDefault:
    def test_base_scheduler_hook_is_noop(self):
        scheduler = Scheduler()
        scheduler.notify_query_finished(
            Query(0.0, 7.0, ("A",), step_qc()))  # must not raise
