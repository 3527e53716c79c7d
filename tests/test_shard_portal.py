"""Tests for the sharded portal: planner, router, migration, accounting.

Organised bottom-up: the staleness metric and router in isolation, the
scatter-gather planner against hand-driven sub-query lifecycles, then
whole :class:`~repro.shard.ShardedPortal` runs (including a forced
migration that exercises the freeze → drain → copy → cutover → replay
protocol under an armed invariant monitor).
"""

import hashlib
import json
import math

import pytest

from repro.cluster import QCAwareRouter, run_cluster_simulation
from repro.cluster.routers import Router
from repro.db.database import Database
from repro.db.transactions import Query, TxnStatus, Update
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.shard import ring as ring_module
from repro.shard import (HashRing, RebalanceConfig, ShardedPortal,
                         ShardPlanner, StalenessAwareRouter,
                         UpdateRateTracker)
from repro.sim import Environment
from repro.sim.invariants import InvariantMonitor, InvariantViolation
from repro.sim.rng import StreamRegistry
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from repro.workload.traces import Trace


def step_query(items=("A",), qosmax=10.0, qodmax=10.0, at=0.0,
               exec_ms=6.0):
    return Query(at, exec_ms, items,
                 QualityContract.step(qosmax, 50.0, qodmax, 1.0))


def small_trace(seed=7, duration_ms=8_000.0, n_stocks=64):
    spec = WorkloadSpec().scaled(duration_ms)
    import dataclasses
    spec = dataclasses.replace(spec, n_stocks=n_stocks)
    return StockWorkloadGenerator(spec, master_seed=seed).generate()


def make_portal(env, n_shards, keys, seed=1, **kwargs):
    return ShardedPortal(env, n_shards, lambda: make_scheduler("QUTS"),
                         StreamRegistry(seed), keys=keys, **kwargs)


# ----------------------------------------------------------------------
# The shared staleness metric (satellite: one accessor, two routers)
# ----------------------------------------------------------------------
class TestStalenessAccessor:
    def test_fresh_and_unknown_keys_have_zero_age(self):
        db = Database()
        db.item("A")
        assert db.staleness_age("A", now=100.0) == 0.0
        assert db.staleness_age("missing", now=100.0) == 0.0

    def test_age_tracks_pending_update(self):
        db = Database()
        update = Update(10.0, 2.0, "A", value=1.0)
        db.register_update(update, now=10.0)
        assert db.staleness_age("A", now=10.0) == 0.0
        assert db.staleness_age("A", now=35.0) == 25.0
        db.apply_update(update, now=35.0)
        assert db.staleness_age("A", now=99.0) == 0.0


class TestUpdateRateTracker:
    def test_single_observation_has_no_rate(self):
        tracker = UpdateRateTracker()
        tracker.observe("A", 100.0)
        assert tracker.rate("A") == 0.0
        assert tracker.rate("never") == 0.0

    def test_steady_stream_converges_to_rate(self):
        tracker = UpdateRateTracker(alpha=0.5)
        for k in range(20):
            tracker.observe("A", k * 10.0)
        assert tracker.rate("A") == pytest.approx(0.1)

    def test_hotness_is_max_over_keys(self):
        tracker = UpdateRateTracker(alpha=1.0)
        for k in range(3):
            tracker.observe("hot", k * 2.0)
            tracker.observe("cold", k * 200.0)
        assert tracker.hotness(["hot", "cold"]) == tracker.rate("hot")
        assert tracker.hotness([]) == 0.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            UpdateRateTracker(alpha=0.0)


class _FakeDatabase:
    def __init__(self, ages):
        self._ages = ages

    def staleness_age(self, key, now):
        return self._ages.get(key, 0.0)


class _FakeEnv:
    now = 1_000.0


class _FakeServer:
    def __init__(self, ages):
        self.database = _FakeDatabase(ages)
        self.env = _FakeEnv()


class _FakeReplica:
    up = True

    def __init__(self, pending_q=0, pending_u=0, ages=None):
        self._q, self._u = pending_q, pending_u
        self.server = _FakeServer(ages or {})

    def pending_queries(self):
        return self._q

    def pending_updates(self):
        return self._u


class TestStalenessAwareRouter:
    def test_qod_heavy_prefers_fresh_replica(self):
        router = StalenessAwareRouter()
        stale = _FakeReplica(pending_q=0, ages={"A": 500.0})
        fresh = _FakeReplica(pending_q=9, ages={"A": 0.0})
        query = step_query(qosmax=1.0, qodmax=99.0)
        assert router.choose(query, [stale, fresh]) == 1

    def test_qos_heavy_prefers_short_queue(self):
        router = StalenessAwareRouter()
        stale = _FakeReplica(pending_q=0, ages={"A": 500.0})
        fresh = _FakeReplica(pending_q=9, ages={"A": 0.0})
        query = step_query(qosmax=99.0, qodmax=1.0)
        assert router.choose(query, [stale, fresh]) == 0

    def test_backlog_weighs_against_replica(self):
        router = StalenessAwareRouter(backlog_ms_per_update=10.0)
        lagging = _FakeReplica(pending_u=50)
        caught_up = _FakeReplica(pending_u=0)
        query = step_query(qosmax=0.0, qodmax=10.0)
        assert router.choose(query, [lagging, caught_up]) == 1

    def test_hot_keys_amplify_backlog(self):
        router = StalenessAwareRouter(hotness_scale=100.0)
        for k in range(10):
            router.observe_update("hot", k * 1.0)
        hot = router.expected_staleness_ms(_FakeReplica(pending_u=5),
                                           ["hot"], now=1_000.0)
        cold = router.expected_staleness_ms(_FakeReplica(pending_u=5),
                                            ["cold"], now=1_000.0)
        assert hot > cold

    def test_ties_break_by_index(self):
        router = StalenessAwareRouter()
        replicas = [_FakeReplica(), _FakeReplica()]
        assert router.choose(step_query(), replicas) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StalenessAwareRouter(backlog_ms_per_update=-1.0)
        with pytest.raises(ValueError):
            StalenessAwareRouter(hotness_scale=-0.1)


class _LegacyQCAware(Router):
    """The pre-refactor QCAwareRouter freshness rule, verbatim: raw
    ``pending_updates()`` counts, ties by index."""

    name = "legacy-qc-aware"

    def __init__(self, qod_threshold=0.5):
        self.qod_threshold = qod_threshold

    def choose(self, query, replicas):
        healthy = self.healthy_indices(replicas)
        total = query.qc.total_max
        qod_share = query.qc.qod_max / total if total > 0 else 0.0
        if qod_share >= self.qod_threshold:
            return min(healthy,
                       key=lambda i: (replicas[i].pending_updates(), i))
        return min(healthy,
                   key=lambda i: (replicas[i].pending_queries(), i))


class TestQCAwareRegression:
    """Satellite check: rebasing QCAwareRouter onto the shared
    ``update_backlog`` metric changed no routing decision."""

    def test_identical_decisions_on_fakes(self):
        new = QCAwareRouter()
        old = _LegacyQCAware()
        replicas = [_FakeReplica(pending_q=q, pending_u=u)
                    for q, u in ((0, 9), (9, 1), (3, 3), (1, 1))]
        for qosmax, qodmax in ((99.0, 1.0), (1.0, 99.0), (5.0, 5.0)):
            query = step_query(qosmax=qosmax, qodmax=qodmax)
            assert (new.choose(query, replicas)
                    == old.choose(query, replicas))

    def test_identical_cluster_results(self):
        trace = small_trace()
        results = [
            run_cluster_simulation(3, lambda: make_scheduler("QUTS"),
                                   trace, QCFactory.balanced(),
                                   router=router, master_seed=5)
            for router in (QCAwareRouter(), _LegacyQCAware())]
        assert (results[0].total_percent == results[1].total_percent)
        assert results[0].counters == results[1].counters
        assert results[0].routed_counts == results[1].routed_counts


# ----------------------------------------------------------------------
# The scatter-gather planner
# ----------------------------------------------------------------------
class TestShardPlanner:
    def make_planner(self):
        env = Environment()
        return env, ShardPlanner(env)

    def test_split_groups_by_owner(self):
        env, planner = self.make_planner()
        ring = HashRing(4, seed=3)
        query = step_query(items=("A", "B", "C"))
        owners = planner.split(query, ring.owner)
        assert sorted(k for ks in owners.values() for k in ks) \
            == ["A", "B", "C"]
        for shard, keys in owners.items():
            assert all(ring.owner(k) == shard for k in keys)

    def test_fan_out_scales_contracts_and_demand(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B", "C"), qosmax=9.0, qodmax=3.0,
                           exec_ms=6.0)
        planned = planner.fan_out(query, {0: ["A", "B"], 1: ["C"]})
        assert [shard for shard, _ in planned] == [0, 1]
        big, small = planned[0][1], planned[1][1]
        assert big.exec_time == pytest.approx(4.0)
        assert small.exec_time == pytest.approx(2.0)
        assert big.qc.total_max == pytest.approx(8.0)
        assert small.qc.total_max == pytest.approx(4.0)
        assert big.shadow_priced and small.shadow_priced
        # the parent's full contract is priced exactly once, here:
        assert planner.ledger.total_max == pytest.approx(12.0)

    def test_all_subs_commit_parent_commits(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B"), qosmax=10.0, qodmax=10.0)
        planned = planner.fan_out(query, {0: ["A"], 1: ["B"]})
        env._now = 5.0
        for _shard, sub in planned:
            sub.staleness = 0.0
            sub.end(TxnStatus.COMMITTED, env.now)
        assert query.status is TxnStatus.COMMITTED
        assert not query.degraded
        assert query.total_profit == pytest.approx(20.0)
        assert planner.fanouts_resolved == 1
        assert not planner.open_fanouts

    def test_partial_failure_degrades_commit(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B"), qosmax=10.0, qodmax=10.0)
        planned = planner.fan_out(query, {0: ["A"], 1: ["B"]})
        env._now = 5.0
        (_s0, ok), (_s1, dead) = planned
        ok.staleness = 0.0
        ok.end(TxnStatus.COMMITTED, env.now)
        dead.end(TxnStatus.LOST_CRASH, env.now)
        assert query.status is TxnStatus.COMMITTED
        assert query.degraded
        assert query.qod_profit == 0.0  # freshness half forfeited
        assert query.qos_profit == pytest.approx(10.0)

    def test_staleness_aggregates_max_over_committed(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B"))
        planned = planner.fan_out(query, {0: ["A"], 1: ["B"]})
        env._now = 4.0
        for age, (_shard, sub) in zip((3.0, 11.0), planned):
            sub.staleness = age
            sub.end(TxnStatus.COMMITTED, env.now)
        assert query.staleness == 11.0

    def test_total_failure_takes_dominant_status(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B"))
        planned = planner.fan_out(query, {0: ["A"], 1: ["B"]})
        (_s0, one), (_s1, two) = planned
        one.end(TxnStatus.DROPPED_LIFETIME, env.now)
        two.end(TxnStatus.LOST_CRASH, env.now)
        assert query.status is TxnStatus.LOST_CRASH
        assert planner.ledger.total_gained == 0.0

    def test_all_unfinished_parent_unfinished(self):
        env, planner = self.make_planner()
        query = step_query(items=("A", "B"))
        for _shard, sub in planner.fan_out(query, {0: ["A"], 1: ["B"]}):
            sub.end(TxnStatus.UNFINISHED)
        assert query.status is TxnStatus.UNFINISHED

    def test_monitor_sees_parent_and_subs(self):
        env = Environment()
        monitor = InvariantMonitor(lambda: env.now)
        planner = ShardPlanner(env, monitor=monitor)
        query = step_query(items=("A", "B"))
        planned = planner.fan_out(query, {0: ["A"], 1: ["B"]})
        # Subs and parent are all open; commits must balance them out.
        for _shard, sub in planned:
            sub.staleness = 0.0
            sub.qos_profit = sub.qod_profit = 0.0
            monitor.record("query_committed", txn_id=sub.txn_id,
                           profit=0.0)
            sub.end(TxnStatus.COMMITTED, 1.0)
        monitor.verify_complete(planner.ledger.total_gained)


# ----------------------------------------------------------------------
# The sharded portal end to end
# ----------------------------------------------------------------------
class TestShardedPortal:
    def test_rejects_bad_shapes(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_portal(env, 0, ["A"])
        with pytest.raises(ValueError):
            make_portal(env, 1, ["A"], base_weight=0)

    def test_single_stock_query_goes_to_owner(self):
        env = Environment()
        keys = [f"S{i}" for i in range(32)]
        portal = make_portal(env, 4, keys)
        query = step_query(items=(keys[0],))
        portal.submit_query(query)
        owner = portal.ring.owner(keys[0])
        assert portal.query_counts[owner] == 1
        assert sum(portal.query_counts) == 1
        env.run(until=5_000.0)
        portal.finalize()
        assert query.status is TxnStatus.COMMITTED

    def test_update_goes_only_to_owner(self):
        env = Environment()
        keys = [f"S{i}" for i in range(32)]
        portal = make_portal(env, 4, keys)
        portal.route_update(0.0, 2.0, keys[3], 7.0)
        owner = portal.ring.owner(keys[3])
        assert portal.update_counts[owner] == 1
        assert sum(portal.update_counts) == 1
        env.run(until=1_000.0)
        value = (portal.shards[owner].replicas[0]
                 .server.database.read(keys[3]))
        assert value == 7.0

    def test_fanout_commits_cross_shard_query(self):
        env = Environment()
        keys = [f"S{i}" for i in range(64)]
        portal = make_portal(env, 4, keys)
        # Find two keys with different owners.
        first = keys[0]
        other = next(k for k in keys
                     if portal.ring.owner(k) != portal.ring.owner(first))
        query = step_query(items=(first, other))
        portal.submit_query(query)
        env.run(until=5_000.0)
        portal.finalize()
        assert query.status is TxnStatus.COMMITTED
        assert not query.degraded
        assert query.total_profit > 0.0
        assert portal.planner.fanouts_resolved == 1
        assert portal.rollup().counters["queries_fanned_out"] == 1

    def test_forced_migration_freezes_and_replays_updates(self):
        """Drive a migration by hand and interleave updates for the
        moved keys: they must freeze, then replay on the destination at
        cutover, under an armed monitor (buffered == replayed)."""
        env = Environment()
        monitor = InvariantMonitor(lambda: env.now)
        keys = [f"S{i}" for i in range(128)]
        config = RebalanceConfig(drain_poll_ms=5.0,
                                 drain_timeout_ms=50.0)
        portal = make_portal(env, 2, keys, monitor=monitor,
                             base_weight=4, rebalance=config)
        portal.rebalances += 1  # mirror the controller's bookkeeping
        portal._migration_active = True
        successor = portal.ring.with_weight(0, 3)
        moved = portal.ring.moved_keys(successor, portal.keys)
        assert moved
        moved_key = sorted(moved)[0]
        # Queue a pending update on the source so draining has work.
        portal.route_update(0.0, 2.0, moved_key, 1.0)
        env.process(portal._migration(successor, moved))
        env.run(until=2.0)  # migration started: keys are frozen
        assert moved_key in portal._migrating
        portal.route_update(env.now, 2.0, moved_key, 42.0)  # frozen
        assert portal.counters.value("updates_frozen") == 1
        env.run(until=5_000.0)
        assert not portal._migrating
        assert not portal._migration_active
        assert portal.ring.weights[0] == 3
        assert portal.keys_migrated == len(moved)
        # The frozen update replayed on the new owner.
        dest = successor.owner(moved_key)
        assert dest == moved[moved_key][1]
        value = (portal.shards[dest].replicas[0]
                 .server.database.read(moved_key))
        assert value == 42.0

    def test_cutover_invariant_catches_lost_updates(self):
        env = Environment()
        monitor = InvariantMonitor(lambda: env.now)
        with pytest.raises(InvariantViolation):
            monitor.record("shard_cutover", source=0, dest=1,
                           buffered=3, replayed=2)

    def test_rebalance_controller_sheds_hot_shard_weight(self):
        """A update-hammered key makes its owner hot; the controller
        must shed that shard's ring weight."""
        env = Environment()
        keys = [f"S{i}" for i in range(64)]
        config = RebalanceConfig(interval_ms=500.0, skew_threshold=1.2,
                                 drain_poll_ms=5.0,
                                 drain_timeout_ms=100.0)
        portal = make_portal(env, 2, keys, rebalance=config)
        hot_key = keys[0]
        hot_shard = portal.ring.owner(hot_key)
        start_weight = portal.ring.weights[hot_shard]

        def hammer(env):
            while env.now < 3_000.0:
                portal.route_update(env.now, 1.0, hot_key, env.now)
                yield env.timeout(4.0)

        env.process(hammer(env))
        env.run(until=4_000.0)
        portal.finalize()
        assert portal.rebalances >= 1
        assert portal.ring.weights[hot_shard] < start_weight

    def test_one_shard_matches_cluster_run(self):
        """A 1-shard sharded run is a replicated portal plus a ring
        lookup: same commits, same profit."""
        from repro.experiments.scaleout import run_sharded_simulation
        trace = small_trace()
        sharded = run_sharded_simulation(
            1, lambda: make_scheduler("QUTS"), trace,
            QCFactory.balanced(), master_seed=3, invariants=True)
        assert sharded.total_percent > 0.0
        assert sharded.counters.get("queries_fanned_out", 0) == 0
        assert (sharded.counters["queries_committed"]
                + sharded.counters.get("queries_dropped", 0)
                + sharded.counters.get("queries_unfinished", 0)
                + sharded.counters.get("queries_rejected", 0)
                >= sharded.counters["queries_submitted"])

    def test_sharded_run_passes_invariants_with_fanout(self):
        from repro.experiments.scaleout import run_sharded_simulation
        trace = small_trace()
        result = run_sharded_simulation(
            4, lambda: make_scheduler("QUTS"), trace,
            QCFactory.balanced(), master_seed=3, invariants=True)
        assert result.invariants_checked
        assert result.counters["queries_fanned_out"] > 0
        assert 0.0 < result.total_percent <= 1.0


# ----------------------------------------------------------------------
# Placement as data: the portal's per-epoch owner table
# ----------------------------------------------------------------------
def skew_trace():
    """One hot-key minute (smoke scale): 1,256 stocks, 16.7k updates."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.scaleout import hot_key_spec
    spec = hot_key_spec(ExperimentConfig(scale="smoke").spec())
    return StockWorkloadGenerator(spec, master_seed=7).generate()


def skew_run(trace, **kwargs):
    """The benchmark's sharded cell on ``trace`` (4 shards x 2 replicas,
    rebalancing armed): 4 cut-overs on :func:`skew_trace`."""
    from repro.experiments.scaleout import (SKEW_REBALANCE,
                                            run_sharded_simulation)
    return run_sharded_simulation(
        4, lambda: make_scheduler("QUTS"), trace, QCFactory.balanced(),
        master_seed=1, replicas_per_shard=2, rebalance=SKEW_REBALANCE,
        **kwargs)


class TestOwnerTable:
    def test_steady_state_routing_hashes_nothing(self, monkeypatch):
        """Hash budget: every ring built may hash its vnodes and the key
        universe once; routing 16.7k updates and 2.6k queries adds
        nothing (the per-lookup ring paid one hash per update, twice)."""
        trace = skew_trace()
        n_keys = len(trace.stocks)
        hashes = budget = 0
        position, build = ring_module._position, HashRing.__init__

        def counted_position(seed, label):
            nonlocal hashes
            hashes += 1
            return position(seed, label)

        def counted_build(ring, *args, **kwargs):
            nonlocal budget
            build(ring, *args, **kwargs)
            budget += len(ring._positions) + n_keys

        monkeypatch.setattr(ring_module, "_position", counted_position)
        monkeypatch.setattr(HashRing, "__init__", counted_build)
        result = skew_run(trace)
        assert result.rebalances == 4
        assert len(trace.updates) > budget / 2  # the bound has teeth
        assert 0 < hashes <= budget

    def test_table_follows_the_ring_across_every_cutover(self, monkeypatch):
        cutovers = []
        migration = ShardedPortal._migration

        def checked(portal, successor, moved):
            before = dict(portal._owners)
            yield from migration(portal, successor, moved)
            assert portal.ring is successor
            assert portal._owners == {
                key: successor.owner(key) for key in portal.keys}
            assert list(portal._owners) == list(portal.keys)
            assert {key: (before[key], now)
                    for key, now in portal._owners.items()
                    if before[key] != now} == moved
            cutovers.append(len(moved))

        monkeypatch.setattr(ShardedPortal, "_migration", checked)
        result = skew_run(skew_trace(), invariants=True)
        assert len(cutovers) == result.rebalances == 4
        assert sum(cutovers) == result.keys_migrated

    def test_hand_driven_cutover_swaps_table_with_ring(self):
        env = Environment()
        keys = [f"S{i}" for i in range(128)]
        portal = make_portal(
            env, 2, keys, base_weight=4,
            rebalance=RebalanceConfig(drain_poll_ms=5.0,
                                      drain_timeout_ms=50.0))
        old_ring = portal.ring
        assert portal._owners == {k: old_ring.owner(k) for k in portal.keys}
        successor = old_ring.with_weight(0, 3)
        moved = old_ring.moved_keys(successor, portal.keys)
        moved_key = sorted(moved)[0]
        portal._migration_active = True
        # A pending update keeps the drain (and so the old epoch) open.
        portal.route_update(0.0, 2.0, moved_key, 1.0)
        env.process(portal._migration(successor, moved))
        env.run(until=1.0)
        assert portal._migrating and portal.ring is old_ring
        assert portal.owner_of(moved_key) == moved[moved_key][0]
        env.run(until=1_000.0)  # before the controller's first sample
        assert portal.ring is successor
        assert portal.owner_of(moved_key) == moved[moved_key][1]
        assert portal._owners == {k: successor.owner(k) for k in portal.keys}

    def test_key_outside_the_universe_asks_the_ring_and_is_not_learned(self):
        env = Environment()
        keys = [f"S{i}" for i in range(32)]
        portal = make_portal(env, 4, keys)
        stranger = "NOT-IN-THE-TRACE"
        owner = portal.ring.owner(stranger)
        assert portal.owner_of(stranger) == owner
        portal.route_update(0.0, 2.0, stranger, 7.0)
        portal.submit_query(step_query(items=(stranger,)))
        assert portal.update_counts[owner] == 1
        assert portal.query_counts[owner] == 1
        assert sum(portal.update_counts) == sum(portal.query_counts) == 1
        assert stranger not in portal._owners
        assert len(portal._owners) == len(keys)

    def test_one_shard_run_digests_as_before(self):
        """Pinned before the table existed: one shard owns everything,
        so placement must be invisible in the result."""
        from repro.experiments.scaleout import run_sharded_simulation
        result = run_sharded_simulation(
            1, lambda: make_scheduler("QUTS"), small_trace(),
            QCFactory.balanced(), master_seed=3)
        digest = json.dumps(result.digest(), sort_keys=True).encode()
        assert hashlib.sha256(digest).hexdigest() == (
            "4f38d3201dfad3ce12a7d8fd5aa70612"
            "776f9d4f9ba1ed93202b105e31db52a2")


class TestProfitShare:
    def test_total_percent_never_exceeds_one(self):
        """``total_gained`` and ``total_max`` are summed in different
        orders over shards x replicas + the planner ledger, so a run
        that earns everything can land one ulp above its maximum."""
        portal = make_portal(Environment(), 2, ["A", "B"])
        ledger = portal.planner.ledger
        ledger.qos_max_submitted = 30.0
        ledger.qos_gained = math.nextafter(30.0, math.inf)
        rollup = portal.rollup()
        assert rollup.total_gained > rollup.total_max
        assert rollup.total_percent == 1.0
        ledger.qos_gained = 15.0
        assert portal.rollup().total_percent == 0.5


class TestFanoutCycles:
    def test_fanouts_are_freed_without_the_cyclic_collector(self):
        """Each sub's ``on_terminal`` closure holds the fan-out state,
        which holds the sub: ``Transaction.end`` clears the hook before
        firing it, so no query, fan-out state or scaled contract is left
        for the cyclic collector (``DEBUG_SAVEALL`` keeps whatever it
        finds in ``gc.garbage``)."""
        import gc

        from repro.experiments.scaleout import run_sharded_simulation

        def fanned_out():
            result = run_sharded_simulation(
                4, lambda: make_scheduler("QUTS"),
                small_trace(duration_ms=4_000.0), QCFactory.balanced(),
                master_seed=3)
            return result.counters["queries_fanned_out"]

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert fanned_out() > 0
            gc.collect()
            kinds = {type(garbage).__name__ for garbage in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not kinds & {"Query", "FanoutState", "ScaledProfit"}, kinds
