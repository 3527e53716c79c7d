"""Tests for the beyond-the-paper extensions (DESIGN.md §6):

* the invalidation ablation toggle on the Database;
* alternative QoD metrics (td / vd) feeding the profit evaluation;
* the inherited-QoD update priority (§3.1's discussion, implemented).
"""

import pytest

from repro.db.database import Database
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, TxnStatus, Update
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.scheduling import (InheritanceQUTSScheduler, InheritedQoDPriority,
                              InterestTable, make_scheduler)
from repro.scheduling.queues import TransactionQueue
from repro.sim import Environment
from repro.sim.rng import StreamRegistry


def step_qc(qosmax=10.0, rtmax=50.0, qodmax=10.0, uumax=1.0):
    return QualityContract.step(qosmax, rtmax, qodmax, uumax)


def query(items=("A",), at=0.0, qodmax=10.0, uumax=1.0):
    return Query(at, 7.0, items, step_qc(qodmax=qodmax, uumax=uumax))


def update(item="A", at=0.0, value=1.0):
    return Update(at, 2.0, item, value=value)


class TestInvalidationToggle:
    def test_disabled_keeps_older_update_alive(self):
        db = Database(invalidation=False)
        old, new = update(at=1.0), update(at=2.0)
        db.register_update(old, now=1.0)
        assert db.register_update(new, now=2.0) is None
        assert old.status is not TxnStatus.DROPPED_SUPERSEDED
        assert old.status.live

    def test_disabled_requires_applying_both(self):
        db = Database(invalidation=False)
        old, new = update(at=1.0, value=1.0), update(at=2.0, value=2.0)
        db.register_update(old, now=1.0)
        db.register_update(new, now=2.0)
        db.apply_update(old, now=3.0)
        assert db.item("A").unapplied_updates == 1
        db.apply_update(new, now=4.0)
        assert db.item("A").unapplied_updates == 0
        assert db.read("A") == 2.0

    def test_enabled_is_default(self):
        assert Database().invalidation is True


class TestQoDMetricChoice:
    def _run(self, metric, uumax):
        env = Environment()
        ledger = ProfitLedger()
        server = DatabaseServer(
            env, Database(), make_scheduler("QH"), ledger,
            StreamRegistry(0),
            config=ServerConfig(class_switch_overhead=0.0,
                                qod_metric=metric))

        def scenario(env):
            server.submit_update(update(value=7.0))
            server.submit_query(query(uumax=uumax))
            yield env.timeout(0)

        env.process(scenario(env))
        env.run(until=100.0)
        return server

    def test_td_metric_measures_milliseconds(self):
        # QH: the query commits at ~7 ms while the update is pending, so
        # td ≈ 7 ms.  With uumax (threshold) = 100 ms, QoD still pays.
        server = self._run("td", uumax=100.0)
        committed = server.ledger.counters.value("queries_committed")
        assert committed == 1
        assert server.ledger.qod_gained == 10.0

    def test_td_metric_strict_threshold_fails(self):
        server = self._run("td", uumax=5.0)  # 7 ms staleness >= 5 ms
        assert server.ledger.qod_gained == 0.0

    def test_vd_metric_measures_value_gap(self):
        # Replica 0.0 vs master 7.0 -> vd = 7; threshold 10 pays.
        server = self._run("vd", uumax=10.0)
        assert server.ledger.qod_gained == 10.0

    def test_vd_metric_tight_threshold_fails(self):
        server = self._run("vd", uumax=5.0)
        assert server.ledger.qod_gained == 0.0

    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(qod_metric="entropy")


class TestInterestTable:
    def test_register_accumulates_per_item(self):
        table = InterestTable()
        table.register(query(items=("A", "B"), qodmax=10.0))
        table.register(query(items=("A",), qodmax=5.0))
        assert table.value("A") == 15.0
        assert table.value("B") == 10.0
        assert table.value("C") == 0.0

    def test_unregister_retires_interest(self):
        table = InterestTable()
        q1 = query(items=("A",), qodmax=10.0)
        q2 = query(items=("A",), qodmax=5.0)
        table.register(q1)
        table.register(q2)
        table.unregister(q1)
        assert table.value("A") == 5.0
        table.unregister(q2)
        assert table.value("A") == 0.0
        assert table.tracked_items() == 0


class TestInheritedQoDPriority:
    def test_most_wanted_item_first(self):
        table = InterestTable()
        table.register(query(items=("HOT",), qodmax=50.0))
        queue = TransactionQueue(InheritedQoDPriority(table))
        cold = update(item="COLD", at=0.0)
        hot = update(item="HOT", at=1.0)
        queue.push(cold)
        queue.push(hot)
        assert queue.pop() is hot

    def test_fifo_among_equal_interest(self):
        queue = TransactionQueue(InheritedQoDPriority(InterestTable()))
        first, second = update(at=1.0, item="A"), update(at=2.0, item="B")
        queue.push(second)
        queue.push(first)
        # No interest anywhere: insertion order (push order) breaks ties.
        assert queue.pop() is second
        assert queue.pop() is first


class TestInheritanceQUTSEndToEnd:
    def test_interest_wired_through_server(self):
        scheduler = InheritanceQUTSScheduler(fixed_rho=0.0, tau=5.0)
        env = Environment()
        ledger = ProfitLedger()
        server = DatabaseServer(env, Database(), scheduler, ledger,
                                StreamRegistry(0),
                                config=ServerConfig(
                                    class_switch_overhead=0.0))

        def scenario(env):
            # A valuable query on HOT, then updates on COLD (first) and
            # HOT (second).  Inherited priority must run HOT first even
            # though COLD arrived earlier.
            server.submit_query(query(items=("HOT",), qodmax=50.0))
            server.submit_update(update(item="COLD", at=0.0))
            server.submit_update(update(item="HOT", at=0.0))
            yield env.timeout(0)

        env.process(scenario(env))
        env.run(until=200.0)
        hot_item = server.database.item("HOT")
        cold_item = server.database.item("COLD")
        assert hot_item.last_applied_time < cold_item.last_applied_time
        # Interest retired once the query committed.
        assert scheduler.interest.value("HOT") == 0.0

    def test_factory_name(self):
        assert make_scheduler("QUTS-inherit").name == "QUTS-inherit"

    def test_factory_kwargs(self):
        scheduler = make_scheduler("QUTS-inherit", tau=5.0)
        assert scheduler.tau == 5.0
