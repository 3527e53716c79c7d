"""Tests for the synthetic Stock.com/NYSE workload generator.

These assert the *published* trace characteristics of Table 3 / Figure 5 on
a scaled-down (60 s) trace, where rates are identical by construction.
"""

import dataclasses
import math

import pytest

from repro.sim.rng import RandomStream
from repro.workload.stats import (per_stock_counts, query_rate_series,
                                  summarize, update_rate_series)
from repro.workload.stocks import StockUniverse, ticker_symbol
from repro.workload.synthetic import (PAPER_DURATION_MS, PAPER_N_QUERIES,
                                      PAPER_N_UPDATES, CrowdEpisode,
                                      StockWorkloadGenerator, WorkloadSpec,
                                      _poisson, paper_trace)
from tests.trace_reference import _geometric


@pytest.fixture(scope="module")
def trace60():
    return StockWorkloadGenerator(WorkloadSpec().scaled(60_000.0),
                                  master_seed=7).generate()


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"duration_ms": 0.0},
        {"n_stocks": 0},
        {"read_set_pmf": (0.5, 0.2)},
        {"query_rate_wobble": 1.5},
        {"update_rate_trend": 1.0},
        {"update_burst_mean": 0.5},
        {"update_exec_mean_ms": 5.0},
        {"popularity_correlation": 2.0},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    def test_scaled_keeps_rates(self):
        spec = WorkloadSpec().scaled(60_000.0)
        assert spec.duration_ms == 60_000.0
        assert spec.query_rate_per_s == WorkloadSpec().query_rate_per_s

    def test_offered_load_near_saturation(self):
        """The default workload rides the edge of saturation (DESIGN.md)."""
        assert 0.95 <= WorkloadSpec().offered_load <= 1.10

    def test_crowd_mass_factor_above_one(self):
        assert WorkloadSpec().crowd_mass_factor > 1.0
        flat = dataclasses.replace(WorkloadSpec(), crowds_per_5min=0.0)
        assert flat.crowd_mass_factor == 1.0


class TestTable3Characteristics:
    def test_query_count_matches_scaled_paper_total(self, trace60):
        expected = PAPER_N_QUERIES * 60_000.0 / PAPER_DURATION_MS
        assert len(trace60.queries) == pytest.approx(expected, rel=0.15)

    def test_update_count_matches_scaled_paper_total(self, trace60):
        expected = PAPER_N_UPDATES * 60_000.0 / PAPER_DURATION_MS
        assert len(trace60.updates) == pytest.approx(expected, rel=0.15)

    def test_query_exec_range(self, trace60):
        assert all(5.0 <= q.exec_ms <= 9.0 for q in trace60.queries)

    def test_update_exec_range(self, trace60):
        assert all(1.0 <= u.exec_ms <= 5.0 for u in trace60.updates)

    def test_update_exec_mean_is_skewed(self, trace60):
        mean = (sum(u.exec_ms for u in trace60.updates)
                / len(trace60.updates))
        assert mean == pytest.approx(WorkloadSpec().update_exec_mean_ms,
                                     rel=0.05)

    def test_summary_rows_render(self, trace60):
        rows = dict(summarize(trace60).rows())
        assert rows["# queries"] == str(len(trace60.queries))
        assert "5 ~ 9ms" in rows["query execution time"]


class TestFigure5Characteristics:
    def test_5a_query_rate_roughly_stationary(self, trace60):
        rates = query_rate_series(trace60)
        # Base rate halves differ by much less than the update trend.
        assert rates.first_half_mean() == pytest.approx(
            rates.second_half_mean(), rel=0.5)

    def test_5b_update_rate_downward_trend(self, trace60):
        rates = update_rate_series(trace60)
        assert rates.first_half_mean() > rates.second_half_mean()

    def test_5c_most_stocks_below_diagonal(self, trace60):
        """Most stocks receive more updates than queries."""
        counts = per_stock_counts(trace60)
        assert counts.fraction_below_diagonal() > 0.5

    def test_5c_zipf_concentration(self, trace60):
        counts = per_stock_counts(trace60)
        by_updates = sorted(counts.updates.values(), reverse=True)
        top_10_share = sum(by_updates[:10]) / sum(by_updates)
        assert top_10_share > 0.10  # heavily skewed vs uniform (~0.2%)

    def test_read_sets_within_configured_sizes(self, trace60):
        sizes = {len(q.items) for q in trace60.queries}
        assert sizes <= {1, 2, 3}
        assert 1 in sizes

    def test_read_sets_have_distinct_items(self, trace60):
        for q in trace60.queries:
            assert len(set(q.items)) == len(q.items)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        spec = WorkloadSpec().scaled(10_000.0)
        a = StockWorkloadGenerator(spec, master_seed=3).generate()
        b = StockWorkloadGenerator(spec, master_seed=3).generate()
        assert a.queries == b.queries
        assert a.updates == b.updates

    def test_different_seed_different_trace(self):
        spec = WorkloadSpec().scaled(10_000.0)
        a = StockWorkloadGenerator(spec, master_seed=3).generate()
        b = StockWorkloadGenerator(spec, master_seed=4).generate()
        assert a.queries != b.queries

    def test_paper_trace_helper(self):
        trace = paper_trace(master_seed=1, duration_ms=5_000.0)
        assert trace.duration_ms == 5_000.0
        assert trace.queries and trace.updates


class TestCrowds:
    def test_crowd_factor(self):
        crowd = CrowdEpisode(10.0, 20.0, 3.0)
        assert crowd.factor_at(9.9) == 1.0
        assert crowd.factor_at(10.0) == 3.0
        assert crowd.factor_at(19.9) == 3.0
        assert crowd.factor_at(20.0) == 1.0

    def test_generator_records_crowds(self):
        generator = StockWorkloadGenerator(
            WorkloadSpec().scaled(300_000.0), master_seed=7)
        generator.generate()
        assert generator.crowds
        for crowd in generator.crowds:
            assert 0.0 <= crowd.start_ms < crowd.end_ms
            assert crowd.multiplier >= 1.0

    def test_rate_with_crowds_exceeds_base(self):
        generator = StockWorkloadGenerator(
            WorkloadSpec().scaled(300_000.0), master_seed=7)
        generator.generate()
        crowd = generator.crowds[0]
        mid = (crowd.start_ms + crowd.end_ms) / 2
        assert (generator.query_rate_at(mid)
                > generator.spec.base_query_rate_at(mid) * 1.5)


class TestBursts:
    def test_bursts_cluster_same_stock(self):
        spec = dataclasses.replace(WorkloadSpec().scaled(30_000.0),
                                   update_burst_mean=4.0,
                                   update_burst_window_ms=100.0)
        trace = StockWorkloadGenerator(spec, master_seed=5).generate()
        # Count updates followed within 100 ms by another on the same stock.
        last_seen: dict[str, float] = {}
        clustered = 0
        for u in trace.updates:
            prev = last_seen.get(u.item)
            if prev is not None and u.arrival_ms - prev <= 100.0:
                clustered += 1
            last_seen[u.item] = u.arrival_ms
        assert clustered / len(trace.updates) > 0.3


class TestStockUniverse:
    def test_ticker_symbols_bijective_base26(self):
        assert ticker_symbol(0) == "A"
        assert ticker_symbol(25) == "Z"
        assert ticker_symbol(26) == "AA"
        assert ticker_symbol(27) == "AB"
        assert ticker_symbol(701) == "ZZ"
        assert ticker_symbol(702) == "AAA"

    def test_ticker_negative_rejected(self):
        with pytest.raises(ValueError):
            ticker_symbol(-1)

    def test_universe_unique_symbols(self):
        universe = StockUniverse(500, RandomStream(0, "u"))
        assert len(set(universe.symbols)) == 500

    def test_rank_mappings_are_permutations(self):
        universe = StockUniverse(100, RandomStream(0, "u"),
                                 popularity_correlation=0.5)
        assert len(universe.query_ranked) == len(universe.update_ranked) == 100
        assert (set(universe.query_ranked) == set(universe.update_ranked)
                == set(universe.symbols))

    def test_full_correlation_aligns_ranks(self):
        universe = StockUniverse(50, RandomStream(0, "u"),
                                 popularity_correlation=1.0)
        assert universe.query_ranked == universe.update_ranked

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            StockUniverse(10, RandomStream(0, "u"),
                          popularity_correlation=-0.5)


class TestSamplers:
    def test_poisson_mean(self):
        stream = RandomStream(0, "p")
        samples = [_poisson(stream, 5.0) for __ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_poisson_zero_mean(self):
        assert _poisson(RandomStream(0, "p"), 0.0) == 0

    def test_poisson_large_mean_normal_approx(self):
        stream = RandomStream(0, "p")
        sample = _poisson(stream, 10_000.0)
        assert abs(sample - 10_000) < 500

    def test_geometric_mean(self):
        stream = RandomStream(0, "g")
        samples = [_geometric(stream, 1 / 2.5) for __ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(2.5, rel=0.07)
        assert min(samples) >= 1

    def test_geometric_p_one(self):
        assert _geometric(RandomStream(0, "g"), 1.0) == 1

    def test_update_exec_sampler_bounds_and_mean(self):
        spec = WorkloadSpec()
        stream = RandomStream(0, "e")
        draw = spec.update_exec_sampler(stream)
        samples = [draw() for __ in range(5000)]
        assert all(1.0 <= s <= 5.0 for s in samples)
        assert (sum(samples) / len(samples)
                == pytest.approx(spec.update_exec_mean_ms, rel=0.03))
