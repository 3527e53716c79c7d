"""Tests for the fault-injection subsystem and degraded operation.

Covers the fault plans/injector, the replica crash/recovery lifecycle,
query failover accounting, overload shedding, and the trace/config
validation added alongside them.
"""

import pytest

from repro.cluster import (HealthConfig, HedgedRouter, NoHealthyReplica,
                           QCAwareRouter, ReplicatedPortal, RoundRobinRouter,
                           run_cluster_simulation)
from repro.db.admission import OverloadShedding
from repro.db.server import ServerConfig
from repro.db.transactions import Query, TxnStatus
from repro.experiments import run_sharded_simulation, run_simulation
from repro.faults import (CRASH, RECOVER, SPIKE_START, FaultEvent,
                          FaultInjector, FaultPlan)
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling import make_qh
from repro.scheduling.quts import QUTSScheduler
from repro.sim import Environment
from repro.sim.rng import StreamRegistry
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from repro.workload.traces import QueryRecord, UpdateRecord


def step_query(qosmax=10.0, qodmax=10.0, at=0.0, exec_ms=7.0,
               lifetime=150_000.0):
    return Query(at, exec_ms, ("A",),
                 QualityContract.step(qosmax, 50.0, qodmax, 1.0,
                                      lifetime=lifetime))


def balance_holds(counters) -> bool:
    """Every submitted contract reaches exactly one terminal outcome."""
    return counters.get("queries_submitted", 0) == (
        counters.get("queries_committed", 0)
        + counters.get("queries_dropped_lifetime", 0)
        + counters.get("queries_unfinished", 0)
        + counters.get("queries_lost_crash", 0))


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, CRASH, replica=0)

    def test_crash_needs_replica(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, CRASH)

    def test_stall_must_not_name_replica(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "stall_updates", replica=1)

    def test_spike_magnitude_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, SPIKE_START, magnitude=0.5)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([FaultEvent(50.0, RECOVER, replica=0),
                          FaultEvent(10.0, CRASH, replica=0)])
        assert [e.at_ms for e in plan] == [10.0, 50.0]

    def test_none_plan_is_empty(self):
        assert len(FaultPlan.none()) == 0
        assert FaultPlan.none().max_replica == -1

    def test_replica_crash_pairs_crash_with_recovery(self):
        plan = FaultPlan.replica_crash(1, at_ms=100.0, down_ms=40.0)
        kinds = [(e.at_ms, e.kind, e.replica) for e in plan]
        assert kinds == [(100.0, CRASH, 1), (140.0, RECOVER, 1)]
        assert plan.max_replica == 1

    @pytest.mark.parametrize("factory", [
        lambda: FaultPlan.replica_crash(0, 10.0, -1.0),
        lambda: FaultPlan.update_stall(10.0, 0.0),
        lambda: FaultPlan.load_spike(10.0, -5.0),
    ])
    def test_nonpositive_durations_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_merged_combines_and_resorts(self):
        merged = FaultPlan.replica_crash(0, 100.0, 50.0).merged(
            FaultPlan.update_stall(20.0, 30.0))
        assert len(merged) == 4
        assert [e.at_ms for e in merged] == sorted(
            e.at_ms for e in merged)

    def test_sample_mtbf_deterministic(self):
        plans = [FaultPlan.sample_mtbf(
            StreamRegistry(7).stream("faults"), n_replicas=3,
            mttf_ms=5_000.0, mttr_ms=500.0, horizon_ms=60_000.0)
            for __ in range(2)]
        assert plans[0].events == plans[1].events
        assert len(plans[0]) > 0

    def test_sample_mtbf_alternates_per_replica(self):
        plan = FaultPlan.sample_mtbf(
            StreamRegistry(7).stream("faults"), n_replicas=2,
            mttf_ms=3_000.0, mttr_ms=400.0, horizon_ms=60_000.0)
        for replica in (0, 1):
            kinds = [e.kind for e in sorted(plan.events,
                                            key=lambda e: e.at_ms)
                     if e.replica == replica]
            assert kinds == [CRASH, RECOVER] * (len(kinds) // 2) \
                + ([CRASH] if len(kinds) % 2 else [])
        assert all(0.0 <= e.at_ms < 60_000.0 for e in plan)

    def test_sample_mtbf_validation(self):
        rng = StreamRegistry(0).stream("x")
        with pytest.raises(ValueError):
            FaultPlan.sample_mtbf(rng, 0, 1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            FaultPlan.sample_mtbf(rng, 1, 1.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class _RawTrace:
    """A trace-shaped object whose records are NOT re-sorted."""

    def __init__(self, queries, updates, duration_ms):
        self.queries = queries
        self.updates = updates
        self.duration_ms = duration_ms
        self.name = "raw"
        self.stocks = frozenset({"A"})


def small_trace(seed=11, duration=15_000.0):
    return StockWorkloadGenerator(WorkloadSpec().scaled(duration),
                                  master_seed=seed).generate()


def make_portal(env, n=2, **kwargs):
    return ReplicatedPortal(env, n, make_qh, StreamRegistry(0), **kwargs)


class TestInjector:
    def test_plan_beyond_cluster_rejected(self):
        env = Environment()
        portal = make_portal(env, n=2)
        with pytest.raises(ValueError):
            FaultInjector(env, FaultPlan.replica_crash(5, 10.0, 10.0),
                          portal)

    def test_scripted_crash_and_recovery_fire_on_time(self):
        env = Environment()
        portal = make_portal(env, n=2)
        injector = FaultInjector(
            env, FaultPlan.replica_crash(0, 100.0, 50.0), portal)
        env.run(until=99.0)
        assert portal.replicas[0].up
        env.run(until=101.0)
        assert not portal.replicas[0].up
        env.run(until=200.0)
        assert portal.replicas[0].up
        assert injector.fired == {CRASH: 1, RECOVER: 1}
        assert portal.replicas[0].crash_count == 1
        assert portal.replicas[0].downtime_ms == pytest.approx(50.0)

    def test_spike_controls_clone_count(self):
        env = Environment()
        portal = make_portal(env, n=1)
        injector = FaultInjector(
            env, FaultPlan.load_spike(10.0, 20.0, magnitude=3.0), portal)
        assert injector.extra_query_copies() == 0
        env.run(until=15.0)
        assert injector.extra_query_copies() == 2
        env.run(until=40.0)
        assert injector.extra_query_copies() == 0

    def test_zero_fault_plan_reproduces_seed_results_exactly(self):
        trace = small_trace()
        plain = run_cluster_simulation(2, QUTSScheduler, trace,
                                       QCFactory.balanced(), master_seed=1)
        gated = run_cluster_simulation(2, QUTSScheduler, trace,
                                       QCFactory.balanced(), master_seed=1,
                                       fault_plan=FaultPlan.none())
        assert gated.total_percent == plain.total_percent
        assert gated.qos_percent == plain.qos_percent
        assert gated.qod_percent == plain.qod_percent
        assert gated.counters == plain.counters
        assert gated.downtime_ms == 0.0
        assert gated.availability == 1.0


# ----------------------------------------------------------------------
# Crash / recovery lifecycle through the portal
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_routing_avoids_dead_replica(self):
        env = Environment()
        portal = make_portal(env, n=2)
        picks = []

        def scenario(env):
            portal.crash_replica(0)
            for __ in range(4):
                picks.append(portal.submit_query(step_query(at=env.now)))
                yield env.timeout(1.0)

        env.process(scenario(env))
        env.run(until=500.0)
        assert picks == [1, 1, 1, 1]

    def test_crashed_replica_misses_broadcasts_then_resyncs(self):
        env = Environment()
        portal = make_portal(env, n=2)

        def scenario(env):
            portal.crash_replica(1)
            portal.broadcast_update(env.now, 2.0, "IBM", value=7.0)
            yield env.timeout(50.0)
            portal.recover_replica(1)
            yield env.timeout(0.0)

        env.process(scenario(env))
        env.run(until=500.0)
        # Both replicas converge: live one applied it on arrival, the
        # crashed one replayed it from the missed-update log.
        for replica in portal.replicas:
            assert replica.server.database.read("IBM") == 7.0
        counters = portal.rollup().counters
        assert counters["updates_resynced"] == 1
        assert counters["replica_crashes"] == 1
        assert counters["replica_recoveries"] == 1

    def test_crash_strands_running_query_and_fails_over(self):
        env = Environment()
        portal = make_portal(env, n=2, router=RoundRobinRouter())

        def scenario(env):
            portal.submit_query(step_query(exec_ms=20.0))
            yield env.timeout(5.0)  # mid-execution on replica 0
            portal.crash_replica(0)

        env.process(scenario(env))
        env.run(until=5_000.0)
        portal.finalize()
        counters = portal.rollup().counters
        assert counters["queries_failed_over"] == 1
        assert counters["query_retries"] == 1
        assert counters["queries_committed"] == 1
        assert balance_holds(counters)
        # The contract was priced exactly once, into replica 0's ledger.
        assert portal.replicas[0].ledger.total_max > 0
        assert portal.replicas[1].ledger.total_max == 0

    def test_lost_query_stays_in_denominator(self):
        env = Environment()
        portal = make_portal(env, n=1, failover_retries=2,
                             failover_backoff_ms=1.0)
        queries = [step_query(exec_ms=20.0)]

        def scenario(env):
            portal.submit_query(queries[0])
            yield env.timeout(5.0)
            portal.crash_replica(0)  # never recovers

        env.process(scenario(env))
        env.run(until=5_000.0)
        portal.finalize()
        counters = portal.rollup().counters
        assert counters["queries_lost_crash"] == 1
        assert counters.get("queries_committed", 0) == 0
        assert balance_holds(counters)
        assert queries[0].status is TxnStatus.LOST_CRASH
        # Lost, not vanished: the maxima still weigh the percentage down.
        assert portal.rollup().total_max > 0
        assert portal.rollup().total_percent == 0.0

    def test_all_down_arrival_strands_then_adopts_on_recovery(self):
        env = Environment()
        portal = make_portal(env, n=1, failover_backoff_ms=10.0)

        def scenario(env):
            portal.crash_replica(0)
            assert portal.submit_query(step_query(at=env.now)) == -1
            yield env.timeout(25.0)
            portal.recover_replica(0)

        env.process(scenario(env))
        env.run(until=5_000.0)
        portal.finalize()
        counters = portal.rollup().counters
        assert counters["queries_stranded_arrival"] == 1
        assert counters["query_retries"] == 1
        assert counters["queries_committed"] == 1
        assert balance_holds(counters)

    def test_crash_and_recover_are_idempotent(self):
        env = Environment()
        portal = make_portal(env, n=2)

        def scenario(env):
            portal.crash_replica(0)
            portal.crash_replica(0)
            yield env.timeout(10.0)
            portal.recover_replica(0)
            portal.recover_replica(0)

        env.process(scenario(env))
        env.run(until=100.0)
        counters = portal.rollup().counters
        assert counters["replica_crashes"] == 1
        assert counters["replica_recoveries"] == 1
        assert portal.replicas[0].downtime_ms == pytest.approx(10.0)

    def test_submit_to_crashed_server_raises(self):
        env = Environment()
        portal = make_portal(env, n=1)
        portal.crash_replica(0)
        with pytest.raises(RuntimeError):
            portal.replicas[0].server.submit_query(step_query())


class TestRunnerUnderFaults:
    def test_crash_mid_trace_completes_and_balances(self):
        trace = small_trace()
        plan = FaultPlan.replica_crash(0, at_ms=4_000.0, down_ms=3_000.0)
        result = run_cluster_simulation(2, QUTSScheduler, trace,
                                        QCFactory.balanced(), master_seed=1,
                                        router=HedgedRouter(),
                                        fault_plan=plan)
        c = result.counters
        spikes = 0  # no spike events in this plan
        assert c["queries_submitted"] == len(trace.queries) + spikes
        assert balance_holds(c)
        assert c["replica_crashes"] == 1
        assert c["replica_recoveries"] == 1
        assert result.crash_counts == [1, 0]
        assert result.downtime_ms == pytest.approx(3_000.0)
        assert 0.0 < result.availability < 1.0
        assert 0.0 <= result.total_percent <= 1.0

    def test_update_stall_bursts_and_preserves_final_state(self):
        trace = small_trace()
        plan = FaultPlan.update_stall(3_000.0, 5_000.0)
        result = run_cluster_simulation(1, QUTSScheduler, trace,
                                        QCFactory.balanced(), master_seed=1,
                                        fault_plan=plan)
        c = result.counters
        updates = (c.get("updates_applied", 0)
                   + c.get("updates_superseded", 0)
                   + c.get("updates_unfinished", 0))
        assert updates == len(trace.updates)
        assert balance_holds(c)

    def test_load_spike_multiplies_submissions(self):
        trace = small_trace()
        plan = FaultPlan.load_spike(0.0, trace.duration_ms, magnitude=2.0)
        result = run_cluster_simulation(1, QUTSScheduler, trace,
                                        QCFactory.balanced(), master_seed=1,
                                        fault_plan=plan)
        c = result.counters
        assert c["queries_submitted"] == 2 * len(trace.queries)
        assert balance_holds(c)

    def test_non_monotonic_query_trace_rejected(self):
        # Trace itself sorts records, so corruption can only arrive via a
        # trace-shaped stand-in (a hand-rolled loader, a buggy mutation).
        trace = _RawTrace(
            queries=[QueryRecord(100.0, ("A",), 5.0),
                     QueryRecord(50.0, ("A",), 5.0)],
            updates=[], duration_ms=200.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_cluster_simulation(1, QUTSScheduler, trace,
                                   QCFactory.balanced(), master_seed=1)

    def test_non_monotonic_update_trace_rejected(self):
        trace = _RawTrace(
            queries=[],
            updates=[UpdateRecord(100.0, "A", 2.0, value=1.0),
                     UpdateRecord(99.0, "A", 2.0, value=2.0)],
            duration_ms=200.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_cluster_simulation(1, QUTSScheduler, trace,
                                   QCFactory.balanced(), master_seed=1)

    # Every replay entry point takes its rows from the same iterator, so
    # the single-server and sharded runners reject the same stand-ins.
    @pytest.mark.parametrize("queries, updates", [
        ([QueryRecord(100.0, ("A",), 5.0), QueryRecord(50.0, ("A",), 5.0)],
         []),
        ([], [UpdateRecord(100.0, "A", 2.0, value=1.0),
              UpdateRecord(99.0, "A", 2.0, value=2.0)]),
    ], ids=["query", "update"])
    def test_non_monotonic_trace_rejected_by_every_runner(self, queries,
                                                          updates):
        trace = _RawTrace(queries, updates, duration_ms=200.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_simulation(QUTSScheduler(), trace, QCFactory.balanced(),
                           master_seed=1)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_sharded_simulation(2, QUTSScheduler, trace,
                                   QCFactory.balanced(), master_seed=1)

    def test_sorted_stand_in_replays_like_the_trace_it_copies(self):
        # The checked path yields the same rows as the column path.
        trace = small_trace(duration=5_000.0)
        raw = _RawTrace(list(trace.queries), list(trace.updates),
                        trace.duration_ms)
        a = run_simulation(QUTSScheduler(), trace, QCFactory.balanced(),
                           master_seed=1)
        b = run_simulation(QUTSScheduler(), raw, QCFactory.balanced(),
                           master_seed=1)
        assert a.total_percent == b.total_percent
        assert a.counters == b.counters


# ----------------------------------------------------------------------
# Hedged routing
# ----------------------------------------------------------------------
class _Stub:
    def __init__(self, pending_q, up=True):
        self._q = pending_q
        self.up = up

    def pending_queries(self):
        return self._q

    def pending_updates(self):
        return 0


class TestHedgedRouter:
    def test_primary_choice_delegates_to_inner(self):
        router = HedgedRouter(inner=QCAwareRouter())
        replicas = [_Stub(5), _Stub(1)]
        assert router.choose(step_query(qosmax=99.0, qodmax=1.0),
                             replicas) == 1
        assert router.name == "hedged(qc-aware)"

    def test_backup_is_least_loaded_other_replica(self):
        router = HedgedRouter()
        replicas = [_Stub(0), _Stub(9), _Stub(2)]
        assert router.choose_backup(step_query(), replicas, primary=0) == 2

    def test_backup_skips_dead_replicas(self):
        router = HedgedRouter()
        replicas = [_Stub(0), _Stub(1, up=False), _Stub(9)]
        assert router.choose_backup(step_query(), replicas, primary=0) == 2

    def test_no_backup_when_primary_is_only_healthy(self):
        router = HedgedRouter()
        replicas = [_Stub(0), _Stub(1, up=False)]
        assert router.choose_backup(step_query(), replicas,
                                    primary=0) is None

    def test_hedged_failover_skips_backoff(self):
        env = Environment()
        portal = make_portal(env, n=2, router=HedgedRouter(),
                             failover_backoff_ms=10_000.0)

        def scenario(env):
            portal.submit_query(step_query(exec_ms=20.0))
            yield env.timeout(5.0)
            portal.crash_replica(0)

        env.process(scenario(env))
        # Far too short for even one 10 s backoff period: commits anyway
        # because the hedge resubmits to the backup immediately.
        env.run(until=200.0)
        assert portal.rollup().counters["queries_committed"] == 1

    def test_backups_retire_with_their_queries(self):
        # A backup is needed only while its query is live on a server:
        # commits and lifetime drops retire it, so none outlives the run.
        env = Environment()
        portal = make_portal(env, n=2, router=HedgedRouter())

        def scenario(env):
            for index in range(8):
                portal.submit_query(step_query(
                    exec_ms=20.0, lifetime=30.0 if index == 7 else 150_000.0))
                yield env.timeout(1.0)
            assert len(portal._backups) == 8

        env.process(scenario(env))
        env.run(until=1_000.0)
        counters = portal.rollup().counters
        assert counters["queries_committed"] == 7
        assert counters["queries_dropped_lifetime"] == 1
        assert portal._backups == {}

    def test_stranded_query_fails_over_to_its_backup(self):
        env = Environment()
        portal = make_portal(env, n=3, router=HedgedRouter(),
                             failover_backoff_ms=10_000.0)
        query = step_query(exec_ms=20.0)
        chosen = {}

        def scenario(env):
            chosen["primary"] = portal.submit_query(query)
            chosen["backup"] = portal._backups[query.txn_id]
            yield env.timeout(5.0)
            portal.crash_replica(chosen["primary"])

        env.process(scenario(env))
        env.run(until=200.0)
        assert query.status is TxnStatus.COMMITTED
        routed = [0, 0, 0]
        routed[chosen["primary"]] += 1
        routed[chosen["backup"]] += 1
        assert chosen["backup"] != chosen["primary"]
        assert portal.routed_counts == routed
        assert portal.fault_counters.as_dict()["query_retries"] == 1
        assert portal._backups == {}

    def test_finished_run_is_freed_without_the_cyclic_collector(self):
        """The outcome hook (a bound method of the portal, installed for
        hedging and for health checks) closes a portal <-> server cycle
        while the run lasts; ``finalize`` breaks it, so nothing of the
        run is left for the cyclic collector (``DEBUG_SAVEALL`` keeps
        whatever it finds in ``gc.garbage``)."""
        import gc

        def run():
            result = run_cluster_simulation(
                3, QUTSScheduler, small_trace(duration=4_000.0),
                QCFactory.balanced(), router=HedgedRouter(), master_seed=1,
                health=HealthConfig())
            return result.counters["queries_committed"]

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run() > 0
            gc.collect()
            kinds = {type(garbage).__name__ for garbage in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not kinds & {"ReplicatedPortal", "DatabaseServer",
                            "Database", "Query"}, kinds


# ----------------------------------------------------------------------
# Overload shedding
# ----------------------------------------------------------------------
class _SchedulerStub:
    def __init__(self):
        self.backlog = 0

    def pending_queries(self):
        return self.backlog


class _ServerStub:
    def __init__(self):
        self.scheduler = _SchedulerStub()


class TestOverloadShedding:
    @pytest.mark.parametrize("kwargs", [
        {"high_watermark": 0},
        {"high_watermark": 10, "low_watermark": 10},
        {"low_watermark": -1},
        {"shed_quantile": 1.5},
        {"window": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverloadShedding(**kwargs)

    def test_hysteresis_enters_high_leaves_low(self):
        policy = OverloadShedding(high_watermark=10, low_watermark=4)
        server = _ServerStub()
        rich = step_query(qosmax=100.0, qodmax=100.0)
        server.scheduler.backlog = 9
        assert policy.admit(rich, server) and not policy.is_shedding
        server.scheduler.backlog = 10
        policy.admit(rich, server)
        assert policy.is_shedding
        # Between the watermarks the mode sticks (no flapping).
        server.scheduler.backlog = 7
        policy.admit(rich, server)
        assert policy.is_shedding
        server.scheduler.backlog = 4
        policy.admit(rich, server)
        assert not policy.is_shedding
        assert policy.mode_changes == [1, 1]

    def test_sheds_lowest_value_contracts_first(self):
        policy = OverloadShedding(high_watermark=5, low_watermark=1,
                                  shed_quantile=0.5)
        server = _ServerStub()
        # Teach the sketch the value distribution while under water.
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            policy.admit(step_query(qosmax=value, qodmax=0.0), server)
        server.scheduler.backlog = 50
        cheap = step_query(qosmax=1.0, qodmax=0.0)
        rich = step_query(qosmax=8.0, qodmax=0.0)
        assert not policy.admit(cheap, server)
        assert policy.admit(rich, server)

    def test_shed_queries_counted_in_ledger(self):
        from repro.db.database import Database
        from repro.db.server import DatabaseServer
        from repro.metrics.profit import ProfitLedger

        env = Environment()
        ledger = ProfitLedger()
        server = DatabaseServer(env, Database(), make_qh(), ledger,
                                StreamRegistry(0),
                                admission=OverloadShedding(
                                    high_watermark=1, low_watermark=0,
                                    shed_quantile=1.0))

        def scenario(env):
            # Saturate: second arrival sees backlog >= 1 -> shedding.
            # The last arrival is a bargain-bin contract, well below the
            # quantile threshold learned from the first two.
            server.submit_query(step_query(exec_ms=500.0))
            server.submit_query(step_query(exec_ms=500.0))
            server.submit_query(step_query(qosmax=0.1, qodmax=0.1,
                                           exec_ms=500.0))
            yield env.timeout(0.0)

        env.process(scenario(env))
        env.run(until=10.0)
        counters = ledger.counters.as_dict()
        assert counters.get("queries_shed", 0) >= 1
        assert counters["queries_shed"] <= counters["queries_rejected"]


# ----------------------------------------------------------------------
# ServerConfig validation (satellite)
# ----------------------------------------------------------------------
class TestServerConfigValidation:
    def test_negative_class_switch_overhead_rejected(self):
        with pytest.raises(ValueError, match="class_switch_overhead"):
            ServerConfig(class_switch_overhead=-1.0)


# ----------------------------------------------------------------------
# Router failure-awareness (the portal-independent contract)
# ----------------------------------------------------------------------
class TestFailureAwareRouting:
    @pytest.mark.parametrize("router_factory", [
        RoundRobinRouter, QCAwareRouter, HedgedRouter])
    def test_all_dead_raises(self, router_factory):
        replicas = [_Stub(0, up=False), _Stub(0, up=False)]
        with pytest.raises(NoHealthyReplica):
            router_factory().choose(step_query(), replicas)

    def test_round_robin_skips_dead_without_losing_cycle(self):
        router = RoundRobinRouter()
        replicas = [_Stub(0), _Stub(0, up=False), _Stub(0)]
        picks = [router.choose(step_query(), replicas) for __ in range(4)]
        assert picks == [0, 2, 0, 2]
