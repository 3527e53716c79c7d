"""Unit tests for profit accounting and result aggregation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.transactions import Query, Update
from repro.metrics.profit import BUCKET_MS, ProfitLedger
from repro.metrics.results import (FIG9_WINDOW_MS, SimulationResult,
                                   improvement_percent)
from repro.qc.contracts import QualityContract
from repro.sim.monitor import TimeSeries


def committed_query(qosmax=10.0, qodmax=10.0, rt=20.0, staleness=0.0):
    query = Query(0.0, 7.0, ("A",),
                  QualityContract.step(qosmax, 50.0, qodmax, 1.0))
    query.finish_time = rt
    query.staleness = staleness
    qos, qod = query.qc.evaluate(rt, staleness)
    query.qos_profit, query.qod_profit = qos, qod
    return query


class TestLedgerAccounting:
    def test_submission_accumulates_maxima(self):
        ledger = ProfitLedger()
        ledger.on_query_submitted(committed_query(10.0, 30.0), now=0.0)
        assert ledger.qos_max_submitted == 10.0
        assert ledger.qod_max_submitted == 30.0
        assert ledger.total_max == 40.0
        assert ledger.qos_max_percent == pytest.approx(0.25)

    def test_commit_accumulates_gains(self):
        ledger = ProfitLedger()
        query = committed_query(10.0, 30.0, rt=20.0, staleness=0.0)
        ledger.on_query_submitted(query, now=0.0)
        ledger.on_query_committed(query, now=20.0)
        assert ledger.qos_gained == 10.0
        assert ledger.qod_gained == 30.0
        assert ledger.total_percent == pytest.approx(1.0)

    def test_missed_deadline_earns_qod_only(self):
        ledger = ProfitLedger()
        query = committed_query(10.0, 30.0, rt=200.0, staleness=0.0)
        ledger.on_query_submitted(query, now=0.0)
        ledger.on_query_committed(query, now=200.0)
        assert ledger.qos_gained == 0.0
        assert ledger.qod_gained == 30.0
        assert ledger.qos_percent == 0.0
        assert ledger.qod_percent == pytest.approx(0.75)

    def test_empty_ledger_percentages_zero(self):
        ledger = ProfitLedger()
        assert ledger.total_percent == 0.0
        assert ledger.qos_percent == 0.0
        assert ledger.qos_max_percent == 0.0

    def test_response_time_and_staleness_tallies(self):
        ledger = ProfitLedger()
        for rt, uu in [(10.0, 0.0), (30.0, 2.0)]:
            query = committed_query(rt=rt, staleness=uu)
            ledger.on_query_submitted(query, now=0.0)
            ledger.on_query_committed(query, now=rt)
        assert ledger.response_time.mean == pytest.approx(20.0)
        assert ledger.staleness.mean == pytest.approx(1.0)

    def test_counters(self):
        ledger = ProfitLedger()
        query = committed_query()
        update = Update(0.0, 1.0, "A")
        ledger.on_query_submitted(query, 0.0)
        ledger.on_query_dropped(query, 5.0)
        ledger.on_query_unfinished(query)
        ledger.on_update_applied(update, 1.0)
        ledger.on_update_superseded(update, 2.0)
        ledger.on_update_unfinished(update)
        ledger.on_restart(victim_is_query=True)
        ledger.on_restart(victim_is_query=False)
        counters = ledger.counters.as_dict()
        assert counters["queries_dropped_lifetime"] == 1
        assert counters["queries_unfinished"] == 1
        assert counters["updates_applied"] == 1
        assert counters["updates_superseded"] == 1
        assert counters["updates_unfinished"] == 1
        assert counters["restarts_queries"] == 1
        assert counters["restarts_updates"] == 1

    def test_time_series_recorded(self):
        # QoS + QoD land in the second of the hook's ``now``; the
        # seconds before it read 0.0.
        ledger = ProfitLedger()
        query = committed_query(10.0, 30.0)
        ledger.on_query_submitted(query, now=5.0)
        ledger.on_query_committed(query, now=2_500.0)
        assert ledger.submitted_per_second == [40.0]
        assert ledger.gained_per_second == [0.0, 0.0, 40.0]


class TestSimulationResult:
    def _result(self):
        ledger = ProfitLedger()
        query = committed_query(rt=10.0)
        ledger.on_query_submitted(query, now=0.0)
        ledger.on_query_committed(query, now=10.0)
        return SimulationResult("QUTS", duration=1_000.0, ledger=ledger)

    def test_properties_delegate(self):
        result = self._result()
        assert result.mean_response_time == 10.0
        assert result.total_percent == pytest.approx(1.0)
        assert result.counters["queries_committed"] == 1

    def test_profit_timeline_buckets(self):
        result = self._result()
        assert list(result.profit_timeline().items()) == [(500.0, 20.0)]

    def test_profit_timeline_max_lines(self):
        ledger = ProfitLedger()
        ledger.on_query_submitted(committed_query(10.0, 30.0), now=0.0)
        result = SimulationResult("QUTS", duration=1_000.0, ledger=ledger)
        assert list(result.profit_timeline(gained=False).items()) == \
            [(500.0, 40.0)]
        assert list(result.profit_timeline().items()) == [(500.0, 0.0)]


def smoothed(values):
    """The Figure 9 curve of raw per-second ``values``."""
    raw = TimeSeries()
    for second, value in enumerate(values):
        raw.record((second + 0.5) * BUCKET_MS, value)
    return raw.moving_window_average(FIG9_WINDOW_MS)


class TestProfitTimeline:
    def test_empty_run_gives_one_zero_bucket(self):
        result = SimulationResult("QUTS", duration=0.0, ledger=ProfitLedger())
        for gained in (True, False):
            assert list(result.profit_timeline(gained).items()) == \
                [(500.0, 0.0)]

    def test_points_stamped_mid_second_one_per_second_of_run(self):
        # ceil(duration / 1 s) points, at (i + 0.5) s, missing seconds 0.0.
        ledger = ProfitLedger()
        query = committed_query(10.0, 30.0)
        ledger.on_query_submitted(query, now=1_200.0)
        ledger.on_query_committed(query, now=6_999.0)
        result = SimulationResult("QUTS", duration=9_500.0, ledger=ledger)
        gained = result.profit_timeline()
        assert gained.times == [500.0 + 1_000.0 * i for i in range(10)]
        assert gained.values == smoothed([0.0] * 6 + [40.0] + [0.0] * 3).values
        assert result.profit_timeline(gained=False).values == \
            smoothed([0.0, 40.0] + [0.0] * 8).values

    def test_commit_at_the_horizon_is_dropped(self):
        ledger = ProfitLedger()
        query = committed_query()
        ledger.on_query_submitted(query, now=0.0)
        ledger.on_query_committed(query, now=3_000.0)
        assert ledger.gained_per_second == [0.0, 0.0, 0.0, 20.0]
        result = SimulationResult("QUTS", duration=3_000.0, ledger=ledger)
        assert result.profit_timeline().values == [0.0, 0.0, 0.0]

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=60_000.0),
                              st.floats(min_value=0.0, max_value=100.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_bucket_mass_equals_ledger_totals(self, events):
        ledger = ProfitLedger()
        for now, qos, qod in sorted(events):
            query = committed_query(qos, qod)
            query.qos_profit, query.qod_profit = qos, qod
            ledger.on_query_submitted(query, now)
            ledger.on_query_committed(query, now)
        assert len(ledger.gained_per_second) == (
            int(max(events)[0] / BUCKET_MS) + 1 if events else 0)
        assert math.fsum(ledger.submitted_per_second) == pytest.approx(
            ledger.total_max, rel=1e-12, abs=1e-9)
        assert math.fsum(ledger.gained_per_second) == pytest.approx(
            ledger.total_gained, rel=1e-12, abs=1e-9)


class TestHelpers:
    def test_improvement_percent(self):
        assert improvement_percent(2.0, 1.0) == pytest.approx(100.0)
        assert improvement_percent(1.4, 1.0) == pytest.approx(40.0)
        assert improvement_percent(1.0, 0.0) == float("inf")
        assert improvement_percent(0.0, 0.0) == 0.0
