"""Edge-case tests for the database server: stale interrupts, idling,
lock statistics, and finalize."""

import pytest

from repro.db.database import Database
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, TxnStatus, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.scheduling import make_qh, make_uh
from repro.scheduling.base import Scheduler
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
        # No requester ever waits; the key is kept at a constant 0.
        assert stats["blocks_caused"] == 0


class TestNotifyHookDefault:
    def test_base_scheduler_hook_is_noop(self):
        scheduler = Scheduler()
        scheduler.notify_query_finished(
            Query(0.0, 7.0, ("A",), step_qc()))  # must not raise
