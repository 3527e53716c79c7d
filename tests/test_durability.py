"""Durable recovery: WAL + checkpoints, fault-plan validation, and the
invariant monitor.

Covers the acceptance scenarios of the durability layer:

* the write-ahead log's group commit, crash, and checkpoint fencing;
* :class:`FaultPlan` validation rejecting impossible outage histories;
* scripted portal crashes recovering with bounded RPO (the unflushed
  WAL tail) and reaching state parity with a fault-free run;
* a deliberately corrupted WAL tail refusing to replay;
* the invariant monitor's conservation laws, and its observer property
  (a monitored fault-free run is bit-identical to an unmonitored one).
"""

import random

import pytest

from repro.cluster import HedgedRouter, run_cluster_simulation
from repro.db.database import Database
from repro.db.transactions import Update
from repro.db.wal import DurabilityConfig, WriteAheadLog
from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import CRASH, PORTAL_CRASH, PORTAL_RECOVER, RECOVER
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

DURATION_MS = 20_000.0
TRACE = StockWorkloadGenerator(WorkloadSpec().scaled(DURATION_MS),
                               master_seed=11).generate()


def run_cluster(*, fault_plan=None, durability=None, invariants=False,
                policy="QUTS", master_seed=1, n_replicas=2):
    return run_cluster_simulation(
        n_replicas, lambda: make_scheduler(policy), TRACE,
        QCFactory.balanced(), router=HedgedRouter(),
        master_seed=master_seed, fault_plan=fault_plan,
        durability=durability, invariants=invariants)


# ---------------------------------------------------------------------------
# Write-ahead log unit behaviour
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def _update(self, item, value, seq):
        update = Update(0.0, 5.0, item, value=value)
        update.seq = seq
        return update

    def test_group_commit_flushes_on_boundary(self):
        wal = WriteAheadLog(flush_every=3)
        wal.append_applied(self._update("a", 1.0, 1), now=10.0)
        wal.append_applied(self._update("a", 2.0, 2), now=20.0)
        assert wal.unflushed == 2
        assert wal.durable_lsn == 0
        wal.append_applied(self._update("b", 3.0, 1), now=30.0)
        assert wal.unflushed == 0
        assert wal.durable_lsn == 3
        assert wal.flushes == 1

    def test_crash_loses_exactly_the_unflushed_tail(self):
        wal = WriteAheadLog(flush_every=4)
        for i in range(6):  # 4 flushed, 2 buffered
            wal.append_applied(self._update("a", float(i), i + 1),
                               now=float(i))
        lost = wal.crash()
        assert [r.lsn for r in lost] == [5, 6]
        assert wal.records_lost == 2
        assert wal.durable_lsn == 4
        assert wal.unflushed == 0

    def test_checkpoint_flushes_and_fences(self):
        db = Database(["a", "b"])
        wal = WriteAheadLog(flush_every=100)
        wal.append_applied(self._update("a", 1.0, 1), now=5.0)
        checkpoint = wal.take_checkpoint(db, {"pending_updates": 0},
                                         now=6.0)
        assert wal.unflushed == 0  # checkpoint forces the flush
        assert checkpoint.last_lsn == 1
        wal.append_applied(self._update("b", 2.0, 1), now=7.0)
        wal.flush()
        recovered, tail = wal.recover()
        assert recovered is checkpoint
        assert [r.lsn for r in tail] == [2]  # only records past the fence

    def test_recover_without_checkpoint_returns_whole_log(self):
        wal = WriteAheadLog(flush_every=1)
        wal.append_applied(self._update("a", 1.0, 1), now=1.0)
        checkpoint, tail = wal.recover()
        assert checkpoint is None
        assert [r.lsn for r in tail] == [1]

    def test_records_are_checksummed(self):
        wal = WriteAheadLog(flush_every=1)
        record = wal.append_applied(self._update("a", 1.5, 1), now=1.0)
        assert record.verify()

    def test_corrupted_tail_raises_invariant_violation(self):
        wal = WriteAheadLog(flush_every=1)
        wal.append_applied(self._update("a", 1.0, 1), now=1.0)
        wal.corrupt_tail_record()
        with pytest.raises(InvariantViolation, match="corrupted WAL"):
            wal.recover()

    def test_durability_config_validation(self):
        with pytest.raises(ValueError):
            DurabilityConfig(checkpoint_interval_ms=0)
        with pytest.raises(ValueError):
            DurabilityConfig(flush_every=0)
        with pytest.raises(ValueError):
            WriteAheadLog(flush_every=0)


# ---------------------------------------------------------------------------
# Fault-plan validation (impossible outage histories are plan bugs)
# ---------------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_double_crash_of_down_replica_rejected(self):
        with pytest.raises(ValueError, match="is in 'down'"):
            FaultPlan([FaultEvent(100.0, CRASH, replica=0),
                       FaultEvent(200.0, CRASH, replica=0)])

    def test_recover_without_prior_crash_rejected(self):
        with pytest.raises(ValueError, match="requires condition 'down'"):
            FaultPlan([FaultEvent(100.0, RECOVER, replica=1)])

    def test_double_portal_crash_rejected(self):
        with pytest.raises(ValueError, match="portal crashed again"):
            FaultPlan([FaultEvent(100.0, PORTAL_CRASH),
                       FaultEvent(200.0, PORTAL_CRASH)])

    def test_portal_recover_without_crash_rejected(self):
        with pytest.raises(ValueError,
                           match="without a prior portal crash"):
            FaultPlan([FaultEvent(100.0, PORTAL_RECOVER)])

    def test_replica_events_inside_portal_outage_rejected(self):
        with pytest.raises(ValueError, match="portal-wide outage"):
            FaultPlan([FaultEvent(100.0, PORTAL_CRASH),
                       FaultEvent(150.0, CRASH, replica=0),
                       FaultEvent(200.0, PORTAL_RECOVER)])

    def test_crash_recover_cycles_are_valid(self):
        plan = FaultPlan([FaultEvent(100.0, CRASH, replica=0),
                          FaultEvent(200.0, RECOVER, replica=0),
                          FaultEvent(300.0, CRASH, replica=0),
                          FaultEvent(400.0, RECOVER, replica=0)])
        assert len(plan) == 4

    def test_portal_recover_resets_replica_state(self):
        # The portal outage subsumes replica 0's crash; after
        # portal_recover everything is up, so a fresh crash is legal.
        plan = FaultPlan([FaultEvent(50.0, CRASH, replica=0),
                          FaultEvent(100.0, PORTAL_CRASH),
                          FaultEvent(200.0, PORTAL_RECOVER),
                          FaultEvent(300.0, CRASH, replica=0),
                          FaultEvent(400.0, RECOVER, replica=0)])
        assert len(plan) == 5

    def test_merged_plans_are_revalidated(self):
        single = FaultPlan.replica_crash(0, 100.0, 50.0)
        with pytest.raises(ValueError, match="is in 'down'"):
            single.merged(FaultPlan.replica_crash(0, 120.0, 50.0))

    def test_portal_crash_constructor(self):
        plan = FaultPlan.portal_crash(600_000.0, 5_000.0)
        assert [e.kind for e in plan] == [PORTAL_CRASH, PORTAL_RECOVER]
        with pytest.raises(ValueError):
            FaultPlan.portal_crash(600_000.0, 0.0)


# ---------------------------------------------------------------------------
# Scripted portal crash: RPO bound, RTO reported, state parity
# ---------------------------------------------------------------------------
class TestPortalCrashRecovery:
    DURABILITY = DurabilityConfig(checkpoint_interval_ms=5_000.0,
                                  flush_every=8)
    PLAN = FaultPlan.portal_crash(12_000.0, 2_000.0)

    def test_recovers_with_bounded_rpo_and_reports_rto(self):
        result = run_cluster(fault_plan=self.PLAN,
                             durability=self.DURABILITY, invariants=True)
        assert result.fault_counters["portal_crashes"] == 1
        assert result.fault_counters["portal_recoveries"] == 1
        # The whole portal went down once for 2 s.
        assert result.downtime_union_ms == pytest.approx(2_000.0)
        assert result.downtime_ms == pytest.approx(4_000.0)  # 2 replicas
        portal = [i for i in result.incidents if i["scope"] == "portal"]
        assert len(portal) == 1
        incident = portal[0]
        # RPO: only the unflushed group-commit tail can be lost, and
        # the checkpoint fence means recovery replayed at most the
        # records applied since the last checkpoint (taken at 10 s).
        assert incident["rpo_uu"] < self.DURABILITY.flush_every
        assert incident["checkpoint_at_ms"] == pytest.approx(10_000.0)
        assert incident["caught_up"]
        assert incident["rto_ms"] is not None and incident["rto_ms"] > 0
        assert result.rto_ms_max == pytest.approx(incident["rto_ms"])
        # Replay volume is fenced by the checkpoint: it cannot exceed
        # the updates applied in the 2 s between checkpoint and crash.
        replica_incidents = [i for i in result.incidents
                             if i["scope"] == "replica"]
        assert len(replica_incidents) == 2
        for inc in replica_incidents:
            assert inc["wal_replayed"] <= inc["resynced"] * 10  # sanity
            assert inc["recovered_at_ms"] == pytest.approx(14_000.0)

    def test_reaches_state_parity_with_fault_free_run(self):
        # After catching up, every replica's database must agree with a
        # fault-free run of the same trace: same values, same master
        # state, same #uu (the digest ignores volatile sequence ids).
        baseline = run_cluster(durability=self.DURABILITY)
        crashed = run_cluster(fault_plan=self.PLAN,
                              durability=self.DURABILITY, invariants=True)
        assert crashed.state_digests == baseline.state_digests

    def test_zero_violations_with_monitor_enabled(self):
        # verify_complete runs inside run_cluster_simulation; reaching
        # the assert means no law was broken during the chaos run.
        result = run_cluster(fault_plan=self.PLAN,
                             durability=self.DURABILITY, invariants=True)
        assert result.invariants_checked

    def test_corrupted_wal_tail_aborts_strict_recovery(self):
        # The strict WAL recover() (no portal) still refuses to replay
        # a damaged log outright — corruption tolerance is a *portal*
        # recovery feature (CRC-truncated replay + peer read-repair),
        # not a licence for the log itself to lie.
        from repro.cluster import ReplicatedPortal
        from repro.sim import Environment
        from repro.sim.rng import StreamRegistry

        env = Environment()
        portal = ReplicatedPortal(
            env, 1, lambda: make_scheduler("FIFO"), StreamRegistry(3),
            durability=DurabilityConfig(checkpoint_interval_ms=60_000.0,
                                        flush_every=1))
        server = portal.replicas[0].server
        for i in range(4):
            server.submit_update(Update(0.0, 5.0, "x", value=float(i)))
        env.run(until=100.0)
        portal.crash_replica(0)
        portal.replicas[0].wal.corrupt_tail_record()
        with pytest.raises(InvariantViolation, match="corrupted WAL"):
            portal.replicas[0].wal.recover()

    def test_corrupted_wal_tail_detected_and_survived_at_recovery(self):
        # Portal recovery survives the same damage: the CRC scan
        # truncates the replay at the first bad record and counts the
        # refused suffix (no healthy peer here, so it stays unrepaired).
        from repro.cluster import ReplicatedPortal
        from repro.sim import Environment
        from repro.sim.rng import StreamRegistry

        env = Environment()
        portal = ReplicatedPortal(
            env, 1, lambda: make_scheduler("FIFO"), StreamRegistry(3),
            durability=DurabilityConfig(checkpoint_interval_ms=60_000.0,
                                        flush_every=1))
        server = portal.replicas[0].server
        for i in range(4):
            server.submit_update(Update(0.0, 5.0, "x", value=float(i)))
        env.run(until=100.0)
        portal.crash_replica(0)
        portal.replicas[0].wal.corrupt_tail_record()
        portal.recover_replica(0)
        counters = portal.fault_counters.as_dict()
        assert counters.get("wal_corruption_detected", 0) == 1
        assert counters.get("wal_corrupt_unrepaired", 0) == 1
        assert portal.replicas[0].up


# ---------------------------------------------------------------------------
# Availability accounting: union of outage intervals, not the sum
# ---------------------------------------------------------------------------
class TestAvailabilityUnion:
    def test_overlapping_outages_counted_once(self):
        # Both replicas down over the same 2 s window: the portal was
        # unavailable for 2 s, not 4 replica-seconds.
        plan = FaultPlan([FaultEvent(8_000.0, CRASH, replica=0),
                          FaultEvent(10_000.0, RECOVER, replica=0),
                          FaultEvent(8_000.0, CRASH, replica=1),
                          FaultEvent(10_000.0, RECOVER, replica=1)])
        result = run_cluster(fault_plan=plan)
        assert result.downtime_ms == pytest.approx(4_000.0)
        assert result.downtime_union_ms == pytest.approx(2_000.0)
        assert result.availability == pytest.approx(
            1.0 - 2_000.0 / result.duration)

    def test_disjoint_outages_still_add_up(self):
        plan = FaultPlan([FaultEvent(6_000.0, CRASH, replica=0),
                          FaultEvent(7_000.0, RECOVER, replica=0),
                          FaultEvent(9_000.0, CRASH, replica=1),
                          FaultEvent(10_500.0, RECOVER, replica=1)])
        result = run_cluster(fault_plan=plan)
        assert result.downtime_union_ms == pytest.approx(2_500.0)
        assert result.downtime_ms == pytest.approx(2_500.0)


# ---------------------------------------------------------------------------
# Property: recovery from a crash at any WAL position is bit-identical
# ---------------------------------------------------------------------------
class TestRecoveryProperties:
    N_UPDATES = 48
    KEYS = ("a", "b", "c")
    CHECKPOINT_EVERY = 7
    FLUSH_EVERY = 3

    def _stream(self, seed):
        rng = random.Random(seed)
        return [(rng.choice(self.KEYS), round(rng.uniform(0, 100), 3),
                 float(i + 1)) for i in range(self.N_UPDATES)]

    def _apply(self, db, item, value, now, wal=None):
        update = Update(now, 5.0, item, value=value)
        db.register_update(update, now)
        db.apply_update(update, now)
        if wal is not None:
            wal.append_applied(update, now)

    def _baseline_digest(self, stream):
        db = Database(self.KEYS)
        for item, value, now in stream:
            self._apply(db, item, value, now)
        return db.state_digest()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_crash_at_every_wal_position_recovers_exactly(self, seed):
        stream = self._stream(seed)
        want = self._baseline_digest(stream)
        for crash_at in range(self.N_UPDATES + 1):
            db = Database(self.KEYS)
            wal = WriteAheadLog(flush_every=self.FLUSH_EVERY)
            for i, (item, value, now) in enumerate(stream[:crash_at]):
                self._apply(db, item, value, now, wal)
                if (i + 1) % self.CHECKPOINT_EVERY == 0:
                    wal.take_checkpoint(db, {}, now)
            # Fail-stop: volatile state dies, the durable trail survives.
            lost = wal.crash()
            db.clear()
            checkpoint, tail = wal.recover()
            if checkpoint is not None:
                db.restore(checkpoint.items)
            for record in tail:
                db.replay_applied(record)
            # Re-sync: the lost tail (from the durable source) and the
            # rest of the stream arrive as fresh updates.
            resync = [(r.item, r.value, r.applied_at) for r in lost]
            for item, value, now in resync + stream[crash_at:]:
                self._apply(db, item, value, now)
            assert db.state_digest() == want, f"crash at {crash_at}"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monitored_empty_plan_changes_no_result_field(self, seed):
        plain = run_cluster(master_seed=seed)
        audited = run_cluster(master_seed=seed,
                              fault_plan=FaultPlan.none(),
                              invariants=True)
        assert audited.total_percent == plain.total_percent
        assert audited.qos_percent == plain.qos_percent
        assert audited.qod_percent == plain.qod_percent
        assert audited.mean_response_time == plain.mean_response_time
        assert audited.counters == plain.counters
        assert audited.routed_counts == plain.routed_counts
        assert audited.state_digests == plain.state_digests
        assert audited.downtime_ms == plain.downtime_ms == 0.0
        assert audited.incidents == plain.incidents == []
        assert audited.availability == plain.availability == 1.0
        assert audited.invariants_checked and not plain.invariants_checked


# ---------------------------------------------------------------------------
# Invariant monitor unit behaviour
# ---------------------------------------------------------------------------
class TestInvariantMonitor:
    def test_clock_monotonicity(self):
        clock = iter([5.0, 3.0])
        monitor = InvariantMonitor(lambda: next(clock))
        monitor.record("query_submitted", txn_id=1)
        with pytest.raises(InvariantViolation, match="clock ran"):
            monitor.record("query_committed", txn_id=1)

    def test_negative_queue_length(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="negative queue"):
            monitor.record("update_submitted", txn_id=1,
                           pending_updates=-1)

    def test_double_terminal_detected(self):
        monitor = InvariantMonitor()
        monitor.record("update_submitted", txn_id=7)
        monitor.record("update_applied", txn_id=7)
        with pytest.raises(InvariantViolation, match="second terminal"):
            monitor.record("update_superseded", txn_id=7)

    def test_terminal_without_submission_detected(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="without ever"):
            monitor.record("query_committed", txn_id=9)

    def test_double_submission_detected(self):
        monitor = InvariantMonitor()
        monitor.record("query_submitted", txn_id=4)
        with pytest.raises(InvariantViolation, match="submitted twice"):
            monitor.record("query_submitted", txn_id=4)

    def test_verify_complete_flags_open_transactions(self):
        monitor = InvariantMonitor()
        monitor.record("query_submitted", txn_id=2)
        with pytest.raises(InvariantViolation, match="never reached"):
            monitor.verify_complete(0.0)

    def test_verify_complete_checks_profit_conservation(self):
        monitor = InvariantMonitor()
        monitor.record("query_submitted", txn_id=2)
        monitor.record("query_committed", txn_id=2, profit=10.0)
        monitor.verify_complete(10.0)
        with pytest.raises(InvariantViolation, match="out of balance"):
            monitor.verify_complete(11.0)

    def test_violation_carries_event_trace(self):
        monitor = InvariantMonitor(history=4)
        monitor.record("update_submitted", txn_id=1)
        try:
            monitor.record("query_committed", txn_id=2)
        except InvariantViolation as exc:
            assert len(exc.trace) == 2
            assert "most recent events" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected InvariantViolation")
