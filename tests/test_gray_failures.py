"""Gray-failure taxonomy: scripted plans, self-healing, and defenses.

Exercises every fault kind beyond fail-stop through full cluster runs:
replica slowdowns, lossy broadcast windows (drop / delay / reorder) with
gap detection and re-sync on heal, silent WAL corruption surfacing at
recovery, the brownout admission response, and the jittered failover
backoff.  Also pins the two determinism contracts the chaos harness
leans on: an empty fault plan is byte-identical to no injector at all,
and identically-seeded gray-failure runs are byte-identical.
"""

import pytest

from repro.cluster import (HealthConfig, HedgedRouter, ReplicatedPortal,
                           RoundRobinRouter, run_cluster_simulation)
from repro.db.admission import BrownoutAdmission
from repro.db.wal import DurabilityConfig
from repro.faults import (DELAY_UPDATES, DROP_UPDATES, REORDER_UPDATES,
                          FaultPlan)
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.db.transactions import Query
from repro.scheduling import make_qh, make_scheduler
from repro.sim import Environment
from repro.sim.rng import StreamRegistry
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

DURATION_MS = 15_000.0
TRACE = StockWorkloadGenerator(WorkloadSpec().scaled(DURATION_MS),
                               master_seed=11).generate()


def run_cluster(*, fault_plan=None, durability=None, invariants=True,
                health=None, admission_factory=None, policy="QUTS",
                master_seed=1, n_replicas=2):
    return run_cluster_simulation(
        n_replicas, lambda: make_scheduler(policy), TRACE,
        QCFactory.balanced(), router=HedgedRouter(),
        master_seed=master_seed, fault_plan=fault_plan,
        durability=durability, invariants=invariants, health=health,
        admission_factory=admission_factory)


def balance_holds(counters) -> bool:
    return counters.get("queries_submitted", 0) == (
        counters.get("queries_committed", 0)
        + counters.get("queries_dropped_lifetime", 0)
        + counters.get("queries_unfinished", 0)
        + counters.get("queries_lost_crash", 0))


def fingerprint(result):
    """Everything that must be bit-identical between equivalent runs."""
    return (result.total_percent, result.qos_percent, result.qod_percent,
            result.mean_response_time, result.counters,
            result.routed_counts, result.state_digests)


# ---------------------------------------------------------------------------
# Scripted plans, one per gray fault kind
# ---------------------------------------------------------------------------
class TestSlowReplica:
    def test_slowdown_window_fires_and_restores(self):
        plan = FaultPlan.slowdown(0, at_ms=2_000.0, duration_ms=6_000.0,
                                  factor=4.0)
        result = run_cluster(fault_plan=plan)
        assert result.fault_counters["replica_slowdowns"] == 1
        assert result.fault_counters["replica_restores"] == 1
        assert balance_holds(result.counters)

    def test_slowdown_costs_response_time(self):
        baseline = run_cluster()
        slowed = run_cluster(fault_plan=FaultPlan.slowdown(
            0, at_ms=1_000.0, duration_ms=10_000.0, factor=8.0))
        assert slowed.mean_response_time > baseline.mean_response_time


class TestLossyBroadcastWindows:
    def test_drop_window_detects_gap_and_resyncs(self):
        plan = FaultPlan.update_loss(0, at_ms=3_000.0,
                                     duration_ms=5_000.0,
                                     mode=DROP_UPDATES)
        result = run_cluster(fault_plan=plan)
        fc = result.fault_counters
        assert fc["update_windows_opened"] == 1
        assert fc["update_windows_healed"] == 1
        assert fc["updates_dropped_window"] > 0
        # The heal re-delivers exactly what the window swallowed (the
        # invariant monitor enforces this too, via ``gap_healed``).
        assert fc["updates_gap_resynced"] == fc["updates_dropped_window"]
        assert fc["broadcast_gaps"] >= 1
        # Self-healing: both replicas converge to the same state.
        assert result.state_digests[0] == result.state_digests[1]
        assert balance_holds(result.counters)

    def test_delay_window_delivers_late_then_heals(self):
        plan = FaultPlan.update_loss(0, at_ms=3_000.0,
                                     duration_ms=5_000.0,
                                     mode=DELAY_UPDATES, delay_ms=800.0)
        result = run_cluster(fault_plan=plan)
        fc = result.fault_counters
        assert fc["updates_delayed"] > 0
        assert fc["update_windows_healed"] == 1
        assert result.state_digests[0] == result.state_digests[1]
        assert balance_holds(result.counters)

    def test_reorder_window_shuffles_then_converges(self):
        plan = FaultPlan.update_loss(0, at_ms=3_000.0,
                                     duration_ms=5_000.0,
                                     mode=REORDER_UPDATES)
        result = run_cluster(fault_plan=plan)
        fc = result.fault_counters
        assert fc["update_windows_opened"] == 1
        assert fc["update_windows_healed"] == 1
        # Out-of-order deliveries are observed, and the heal's
        # newest-wins re-delivery restores register convergence.
        assert fc["broadcast_out_of_order"] >= 1
        assert result.state_digests[0] == result.state_digests[1]
        assert balance_holds(result.counters)


class TestWalCorruption:
    def test_corruption_detected_and_read_repaired_at_recovery(self):
        durability = DurabilityConfig(checkpoint_interval_ms=2_000.0,
                                      flush_every=4)
        plan = FaultPlan.wal_corruption(0, at_ms=8_000.0,
                                        down_ms=1_000.0, records=2)
        result = run_cluster(fault_plan=plan, durability=durability)
        fc = result.fault_counters
        assert fc["wal_records_corrupted"] == 2
        assert fc["wal_corruption_detected"] >= 1
        # A healthy peer exists, so the refused tail is read-repaired.
        assert fc["wal_corrupt_resynced"] > 0
        assert fc.get("wal_corrupt_unrepaired", 0) == 0
        assert result.state_digests[0] == result.state_digests[1]
        assert balance_holds(result.counters)


# ---------------------------------------------------------------------------
# Defenses: breaker + brownout
# ---------------------------------------------------------------------------
class TestDefenses:
    def test_breaker_trips_on_persistent_slowness(self):
        health = HealthConfig(trip_suspicion=0.8, clear_suspicion=0.4,
                              open_ms=500.0)
        plan = FaultPlan.slowdown(0, at_ms=1_000.0,
                                  duration_ms=12_000.0, factor=8.0)
        result = run_cluster(fault_plan=plan, health=health)
        assert result.fault_counters["breaker_trips"] >= 1
        assert balance_holds(result.counters)

    def test_health_layer_off_by_default_is_byte_identical(self):
        # A portal without a HealthConfig builds no detector/breakers;
        # the fault-free fast path must be bit-identical to the seed's.
        assert fingerprint(run_cluster()) == fingerprint(run_cluster())

    def test_brownout_degrades_instead_of_shedding(self):
        factory = lambda: BrownoutAdmission(high_watermark=1,
                                            low_watermark=0,
                                            degrade_factor=0.4)
        result = run_cluster(admission_factory=factory)
        assert result.counters["queries_browned_out"] > 0
        # Brownout admits everything: no shed counter, balance intact.
        assert result.counters.get("queries_shed", 0) == 0
        assert balance_holds(result.counters)

    def test_brownout_keeps_contracts_in_denominator(self):
        factory = lambda: BrownoutAdmission(high_watermark=1,
                                            low_watermark=0)
        browned = run_cluster(admission_factory=factory)
        plain = run_cluster()
        total_max = sum(ledger.total_max
                        for ledger in browned.replica_ledgers)
        plain_max = sum(ledger.total_max
                        for ledger in plain.replica_ledgers)
        assert total_max == pytest.approx(plain_max)


# ---------------------------------------------------------------------------
# Determinism contracts
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_empty_plan_byte_identical_to_no_injector(self):
        bare = run_cluster(fault_plan=None)
        empty = run_cluster(fault_plan=FaultPlan.none())
        assert fingerprint(bare) == fingerprint(empty)

    def test_gray_failure_run_is_reproducible(self):
        plan = FaultPlan.update_loss(0, at_ms=3_000.0,
                                     duration_ms=4_000.0,
                                     mode=DROP_UPDATES).merged(
            FaultPlan.slowdown(1, at_ms=8_000.0, duration_ms=3_000.0))
        runs = [run_cluster(fault_plan=plan,
                            health=HealthConfig()) for __ in range(2)]
        assert fingerprint(runs[0]) == fingerprint(runs[1])
        assert runs[0].fault_counters == runs[1].fault_counters


# ---------------------------------------------------------------------------
# Jittered failover backoff (named ``cluster.retry-backoff`` stream)
# ---------------------------------------------------------------------------
class TestJitteredFailover:
    def test_retry_timeline_matches_named_stream(self):
        """Pin the exact retry timeline against an identically-seeded
        replay of the ``cluster.retry-backoff`` stream."""
        backoff_ms = 10.0
        recover_at = 100.0
        exec_ms = 7.0
        env = Environment()
        portal = ReplicatedPortal(env, 1, make_qh, StreamRegistry(0),
                                  failover_backoff_ms=backoff_ms)
        query = Query(0.0, exec_ms, ("A",),
                      QualityContract.step(10.0, 50.0, 10.0, 1.0,
                                           lifetime=150_000.0))

        def scenario(env):
            portal.crash_replica(0)
            assert portal.submit_query(query) == -1  # stranded arrival
            yield env.timeout(recover_at)
            portal.recover_replica(0)

        env.process(scenario(env))
        env.run(until=5_000.0)
        portal.finalize()

        # Replay the stream: attempt k sleeps backoff * 2^k * U[0.5,1.5];
        # the query is adopted at the first wakeup past the recovery.
        rng = StreamRegistry(0).stream("cluster.retry-backoff")
        wakeup = 0.0
        attempt = 0
        while True:
            wakeup += backoff_ms * (2.0 ** attempt) * rng.uniform(0.5, 1.5)
            if wakeup >= recover_at:
                break
            attempt += 1
        assert portal.rollup().counters["query_retries"] == 1
        assert query.finish_time == pytest.approx(wakeup + exec_ms)

    def test_retry_delays_are_jittered_not_lockstep(self):
        # Two stranded queries must not wake in the same deterministic
        # lock-step pattern: consecutive draws differ.
        rng = StreamRegistry(0).stream("cluster.retry-backoff")
        draws = [rng.uniform(0.5, 1.5) for __ in range(4)]
        assert len(set(draws)) == len(draws)
        assert all(0.5 <= d <= 1.5 for d in draws)

    def test_failover_under_crash_plan_is_reproducible(self):
        plan = FaultPlan.replica_crash(0, at_ms=4_000.0, down_ms=3_000.0)
        runs = [run_cluster(fault_plan=plan) for __ in range(2)]
        assert fingerprint(runs[0]) == fingerprint(runs[1])
        assert runs[0].fault_counters["replica_crashes"] == 1
