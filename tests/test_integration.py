"""Cross-policy integration tests: system-level invariants on real runs.

Each test replays a scaled trace end-to-end under one or more policies and
asserts an invariant the paper's system model guarantees:

* UH commits queries with zero staleness (§3.2);
* profit never exceeds the submitted maxima;
* every transaction is accounted for exactly once;
* QUTS's ρ stays in [0.5, 1] (Eq. 4 note);
* schedulers are work-conserving (no idle CPU while work is queued, which
  shows up as all work completing on a lightly loaded trace).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_simulation
from repro.qc.generator import QCFactory
from repro.scheduling import QUTSScheduler, make_scheduler
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec


def small_trace(seed=11, duration=20_000.0, **overrides):
    spec = dataclasses.replace(WorkloadSpec().scaled(duration), **overrides)
    return StockWorkloadGenerator(spec, master_seed=seed).generate()


@pytest.fixture(scope="module")
def trace():
    return small_trace()


POLICIES = ("FIFO", "UH", "QH", "QUTS")


class TestInvariantsAcrossPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_profit_bounded_by_maxima(self, trace, policy):
        result = run_simulation(make_scheduler(policy), trace,
                                QCFactory.balanced(), master_seed=1)
        ledger = result.ledger
        assert 0.0 <= ledger.qos_gained <= ledger.qos_max_submitted + 1e-9
        assert 0.0 <= ledger.qod_gained <= ledger.qod_max_submitted + 1e-9
        assert 0.0 <= result.total_percent <= 1.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_transaction_conservation(self, trace, policy):
        result = run_simulation(make_scheduler(policy), trace,
                                QCFactory.balanced(), master_seed=1)
        c = result.counters
        queries = (c.get("queries_committed", 0)
                   + c.get("queries_dropped_lifetime", 0)
                   + c.get("queries_unfinished", 0))
        updates = (c.get("updates_applied", 0)
                   + c.get("updates_superseded", 0)
                   + c.get("updates_unfinished", 0))
        assert queries == len(trace.queries)
        assert updates == len(trace.updates)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_response_times_at_least_service_time(self, trace, policy):
        result = run_simulation(make_scheduler(policy), trace,
                                QCFactory.balanced(), master_seed=1)
        # Mean response time can never beat the minimum service time.
        assert result.mean_response_time >= 5.0


class TestUHGuarantee:
    def test_uh_zero_staleness(self, trace):
        """§3.2: 'UH guarantees zero data staleness'."""
        result = run_simulation(make_scheduler("UH"), trace,
                                QCFactory.balanced(), master_seed=1)
        assert result.mean_staleness == 0.0
        assert result.ledger.staleness.maximum <= 0.0

    def test_uh_worst_response_time(self, trace):
        results = {policy: run_simulation(make_scheduler(policy), trace,
                                          QCFactory.balanced(),
                                          master_seed=1)
                   for policy in POLICIES}
        assert results["UH"].mean_response_time == max(
            r.mean_response_time for r in results.values())

    def test_qh_best_response_time(self, trace):
        results = {policy: run_simulation(make_scheduler(policy), trace,
                                          QCFactory.balanced(),
                                          master_seed=1)
                   for policy in POLICIES}
        assert results["QH"].mean_response_time == min(
            r.mean_response_time for r in results.values())


class TestQUTSProperties:
    def test_rho_stays_in_model_range(self, trace):
        scheduler = QUTSScheduler()
        run_simulation(scheduler, trace, QCFactory.balanced(),
                       master_seed=1)
        assert scheduler.rho_series is not None and len(scheduler.rho_series)
        for __, rho in scheduler.rho_series.items():
            assert 0.5 <= rho <= 1.0 + 1e-9

    def test_quts_beats_or_matches_worst_baseline(self, trace):
        results = {policy: run_simulation(make_scheduler(policy), trace,
                                          QCFactory.balanced(),
                                          master_seed=1)
                   for policy in POLICIES}
        worst = min(r.total_percent for n, r in results.items()
                    if n != "QUTS")
        assert results["QUTS"].total_percent >= worst

    def test_quts_near_best_on_both_dimensions(self, trace):
        """The Figure 6 claim: QUTS takes the best profit dimension of the
        fixed policies (within a small tolerance)."""
        results = {policy: run_simulation(make_scheduler(policy), trace,
                                          QCFactory.balanced(),
                                          master_seed=1)
                   for policy in POLICIES}
        quts = results["QUTS"]
        assert quts.qos_percent >= results["UH"].qos_percent - 0.02
        assert quts.qod_percent >= results["QH"].qod_percent - 0.02


class TestLightLoadSanity:
    def test_everything_completes_under_light_load(self):
        """At a fraction of the paper's rates every policy keeps up and no
        profit is left on the table by queueing."""
        trace = small_trace(duration=10_000.0,
                            query_rate_per_s=5.0, update_rate_per_s=20.0,
                            crowds_per_5min=0.0)
        for policy in POLICIES:
            result = run_simulation(make_scheduler(policy), trace,
                                    QCFactory.balanced(), master_seed=1)
            c = result.counters
            assert c.get("queries_unfinished", 0) == 0, policy
            assert c.get("queries_dropped_lifetime", 0) == 0, policy
            assert result.total_percent > 0.9, policy


class TestSeedRobustness:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_invariants_hold_for_any_seed(self, seed):
        trace = small_trace(seed=seed, duration=5_000.0)
        result = run_simulation(make_scheduler("QUTS"), trace,
                                QCFactory.balanced(), master_seed=seed)
        c = result.counters
        queries = (c.get("queries_committed", 0)
                   + c.get("queries_dropped_lifetime", 0)
                   + c.get("queries_unfinished", 0))
        assert queries == len(trace.queries)
        assert 0.0 <= result.total_percent <= 1.0

    @pytest.mark.parametrize("seed", [4905, 4955])
    def test_full_profit_does_not_overshoot_one(self, seed):
        # Both runs earn every contract in full; the gained and maximum
        # sums fold in different orders and differed by an ulp.
        trace = small_trace(seed=seed, duration=5_000.0)
        result = run_simulation(make_scheduler("QUTS"), trace,
                                QCFactory.balanced(), master_seed=seed)
        assert result.total_percent == 1.0
