"""Tests for the replicated-portal extension."""

import pytest

from repro.cluster import (LeastLoadedRouter, NoHealthyReplica,
                           QCAwareRouter, ReplicatedPortal,
                           RoundRobinRouter, run_cluster_simulation)
from repro.db.server import ServerConfig
from repro.db.transactions import Query
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling import make_qh
from repro.scheduling.quts import QUTSScheduler
from repro.sim import Environment
from repro.sim.rng import StreamRegistry
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec


def step_query(qosmax=10.0, qodmax=10.0, at=0.0):
    return Query(at, 7.0, ("A",),
                 QualityContract.step(qosmax, 50.0, qodmax, 1.0))


class _FakeReplica:
    def __init__(self, pending_q, pending_u):
        self._q, self._u = pending_q, pending_u

    def pending_queries(self):
        return self._q

    def pending_updates(self):
        return self._u


class _DeadReplica(_FakeReplica):
    up = False

    def __init__(self):
        super().__init__(0, 0)


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        replicas = [_FakeReplica(0, 0)] * 3
        picks = [router.choose(step_query(), replicas) for __ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_minimum(self):
        router = LeastLoadedRouter()
        replicas = [_FakeReplica(5, 0), _FakeReplica(2, 0),
                    _FakeReplica(9, 0)]
        assert router.choose(step_query(), replicas) == 1

    def test_least_loaded_tie_lowest_index(self):
        router = LeastLoadedRouter()
        replicas = [_FakeReplica(2, 0), _FakeReplica(2, 0)]
        assert router.choose(step_query(), replicas) == 0

    def test_qc_aware_routes_qod_heavy_to_freshest(self):
        router = QCAwareRouter()
        replicas = [_FakeReplica(0, 9), _FakeReplica(9, 1)]
        fresh_lover = step_query(qosmax=1.0, qodmax=99.0)
        assert router.choose(fresh_lover, replicas) == 1

    def test_qc_aware_routes_qos_heavy_to_least_loaded(self):
        router = QCAwareRouter()
        replicas = [_FakeReplica(0, 9), _FakeReplica(9, 1)]
        speed_lover = step_query(qosmax=99.0, qodmax=1.0)
        assert router.choose(speed_lover, replicas) == 0

    def test_qc_aware_threshold_validation(self):
        with pytest.raises(ValueError):
            QCAwareRouter(qod_threshold=1.5)

    @pytest.mark.parametrize("router_factory", [
        RoundRobinRouter, LeastLoadedRouter, QCAwareRouter])
    def test_single_replica_always_chosen(self, router_factory):
        router = router_factory()
        replicas = [_FakeReplica(3, 7)]
        picks = [router.choose(step_query(), replicas) for __ in range(3)]
        assert picks == [0, 0, 0]

    @pytest.mark.parametrize("router_factory", [
        RoundRobinRouter, LeastLoadedRouter, QCAwareRouter])
    def test_all_dead_raises_no_healthy_replica(self, router_factory):
        replicas = [_DeadReplica(), _DeadReplica()]
        with pytest.raises(NoHealthyReplica):
            router_factory().choose(step_query(), replicas)

    def test_replicas_without_health_bit_treated_as_up(self):
        # Plain stand-ins (no crash lifecycle) must keep routing.
        router = LeastLoadedRouter()
        replicas = [_FakeReplica(5, 0), _FakeReplica(1, 0)]
        assert router.choose(step_query(), replicas) == 1


class TestPortal:
    def test_requires_replicas(self):
        env = Environment()
        with pytest.raises(ValueError):
            ReplicatedPortal(env, 0, QUTSScheduler, StreamRegistry(0))

    def test_broadcast_reaches_every_replica(self):
        env = Environment()
        portal = ReplicatedPortal(env, 3, make_qh, StreamRegistry(0),
                                  server_config=ServerConfig(
                                      class_switch_overhead=0.0))

        def scenario(env):
            portal.broadcast_update(0.0, 2.0, "IBM", value=42.0)
            yield env.timeout(0)

        env.process(scenario(env))
        env.run(until=100.0)
        for replica in portal.replicas:
            assert replica.server.database.read("IBM") == 42.0
        assert portal.rollup().counters["updates_applied"] == 3

    def test_query_served_by_one_replica(self):
        env = Environment()
        portal = ReplicatedPortal(env, 2, make_qh, StreamRegistry(0))

        def scenario(env):
            portal.submit_query(step_query())
            yield env.timeout(0)

        env.process(scenario(env))
        env.run(until=100.0)
        assert portal.rollup().counters["queries_committed"] == 1
        assert sum(portal.routed_counts) == 1


class TestClusterRunner:
    @pytest.fixture(scope="class")
    def trace(self):
        return StockWorkloadGenerator(WorkloadSpec().scaled(15_000.0),
                                      master_seed=11).generate()

    def test_conservation_across_cluster(self, trace):
        result = run_cluster_simulation(2, QUTSScheduler, trace,
                                        QCFactory.balanced(),
                                        master_seed=1)
        c = result.counters
        queries = (c.get("queries_committed", 0)
                   + c.get("queries_dropped_lifetime", 0)
                   + c.get("queries_unfinished", 0))
        assert queries == len(trace.queries)
        # Every replica sees every update.
        updates = (c.get("updates_applied", 0)
                   + c.get("updates_superseded", 0)
                   + c.get("updates_unfinished", 0))
        assert updates == 2 * len(trace.updates)

    def test_two_replicas_beat_one_on_latency(self, trace):
        single = run_cluster_simulation(1, QUTSScheduler, trace,
                                        QCFactory.balanced(),
                                        master_seed=1)
        double = run_cluster_simulation(2, QUTSScheduler, trace,
                                        QCFactory.balanced(),
                                        master_seed=1)
        assert double.mean_response_time <= single.mean_response_time
        assert double.total_percent >= single.total_percent - 0.01

    def test_single_replica_matches_single_server_shape(self, trace):
        from repro.experiments.runner import run_simulation
        cluster = run_cluster_simulation(1, QUTSScheduler, trace,
                                         QCFactory.balanced(),
                                         master_seed=1)
        single = run_simulation(QUTSScheduler(), trace,
                                QCFactory.balanced(), master_seed=1)
        # Not bit-identical (replica RNG streams are namespaced), but the
        # same workload at the same scale must land very close.
        assert cluster.total_percent == pytest.approx(
            single.total_percent, abs=0.03)

    def test_routers_balance_or_bias_as_designed(self, trace):
        rr = run_cluster_simulation(2, QUTSScheduler, trace,
                                    QCFactory.balanced(), master_seed=1,
                                    router=RoundRobinRouter())
        assert abs(rr.routed_counts[0] - rr.routed_counts[1]) <= 1

        qc = run_cluster_simulation(2, QUTSScheduler, trace,
                                    QCFactory.balanced(), master_seed=1,
                                    router=QCAwareRouter())
        assert sum(qc.routed_counts) == len(trace.queries)
        # QC-aware routing must not lose to round-robin.
        assert qc.total_percent >= rr.total_percent - 0.02
