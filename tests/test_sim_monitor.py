"""Unit + property tests for the measurement utilities."""

import pickle
import statistics
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import (Counter, CounterSet, Tally, TimeSeries,
                               TimeWeighted)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestTally:
    def test_empty_tally_defaults(self):
        tally = Tally("x")
        assert tally.count == 0
        assert tally.mean == 0.0
        assert tally.variance == 0.0

    def test_empty_tally_full_surface(self):
        # Every statistic must be safe to read with zero observations —
        # an idle replica's ledger is summarised just like a busy one's.
        tally = Tally("idle")
        assert tally.total == 0.0
        assert tally.stdev == 0.0
        assert tally.minimum == float("inf")
        assert tally.maximum == float("-inf")
        repr(tally)  # formatting must not choke on the infinities

    def test_variance_zero_below_two_observations(self):
        tally = Tally()
        tally.observe(3.0)
        assert tally.variance == 0.0
        assert tally.stdev == 0.0

    def test_single_observation(self):
        tally = Tally()
        tally.observe(5.0)
        assert tally.mean == 5.0
        assert tally.minimum == tally.maximum == 5.0
        assert tally.variance == 0.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    @settings(max_examples=100)
    def test_matches_statistics_module(self, values):
        tally = Tally()
        for value in values:
            tally.observe(value)
        assert tally.mean == pytest.approx(statistics.fmean(values),
                                           rel=1e-9, abs=1e-6)
        assert tally.variance == pytest.approx(statistics.variance(values),
                                               rel=1e-6, abs=1e-6)
        assert tally.minimum == min(values)
        assert tally.maximum == max(values)
        assert tally.total == pytest.approx(sum(values), rel=1e-9, abs=1e-6)

    def test_stdev_is_sqrt_variance(self):
        tally = Tally()
        for v in (1.0, 2.0, 3.0, 4.0):
            tally.observe(v)
        assert tally.stdev == pytest.approx(tally.variance ** 0.5)


class TestTimeSeries:
    def test_record_and_items(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(5.0, 2.0)
        assert list(series.items()) == [(0.0, 1.0), (5.0, 2.0)]
        assert len(series) == 2

    def test_empty_series(self):
        series = TimeSeries("empty")
        assert len(series) == 0
        assert list(series.items()) == []
        smoothed = series.moving_window_average(5.0)
        assert len(smoothed) == 0

    def test_rejects_time_travel(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ValueError):
            series.record(5.0, 2.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        assert len(series) == 2

    def test_moving_window_flat_signal_unchanged(self):
        series = TimeSeries()
        for t in range(20):
            series.record(float(t), 3.0)
        smoothed = series.moving_window_average(5.0)
        assert all(v == pytest.approx(3.0) for v in smoothed.values)

    def test_moving_window_smooths_spike(self):
        series = TimeSeries()
        for t in range(21):
            series.record(float(t), 10.0 if t == 10 else 0.0)
        smoothed = series.moving_window_average(4.0)
        assert max(smoothed.values) < 10.0
        assert smoothed.values[10] > 0.0

    def test_moving_window_requires_positive_window(self):
        with pytest.raises(ValueError):
            TimeSeries().moving_window_average(0.0)


class TestBoundedTimeSeries:
    def test_unbounded_by_default(self):
        series = TimeSeries()
        for t in range(10_000):
            series.record(float(t), 1.0)
        assert len(series) == 10_000

    def test_requires_at_least_two_points(self):
        with pytest.raises(ValueError):
            TimeSeries(max_points=1)

    def test_stays_within_bound(self):
        series = TimeSeries(max_points=64)
        for t in range(100_000):
            series.record(float(t), float(t))
        assert len(series) <= 64
        assert series.offered == 100_000

    def test_decimation_keeps_fixed_stride_grid(self):
        series = TimeSeries(max_points=8)
        for t in range(1000):
            series.record(float(t), float(t))
        # Retained samples sit on a uniform power-of-two offer grid.
        stride = series.stride
        assert stride >= 2
        assert all(t % stride == 0 for t in series.times)
        diffs = {b - a for a, b in zip(series.times, series.times[1:])}
        assert diffs == {float(stride)}

    def test_decimation_preserves_first_sample(self):
        series = TimeSeries(max_points=4)
        for t in range(100):
            series.record(float(t), float(t))
        assert series.times[0] == 0.0

    def test_odd_max_points_never_exceeds_bound(self):
        series = TimeSeries(max_points=5)
        for t in range(10_000):
            series.record(float(t), 1.0)
        assert len(series) <= 5

    def test_monotonicity_still_enforced_when_bounded(self):
        series = TimeSeries(max_points=4)
        series.record(10.0, 1.0)
        with pytest.raises(ValueError):
            series.record(5.0, 1.0)


class TestTimeWeightedMean:
    def test_empty_series_is_zero(self):
        assert TimeSeries().time_weighted_mean() == 0.0

    def test_piecewise_constant_integral(self):
        series = TimeSeries()
        series.record(0.0, 2.0)   # 2 over [0, 10)
        series.record(10.0, 4.0)  # 4 over [10, 20)
        assert series.time_weighted_mean(until=20.0) == pytest.approx(3.0)

    def test_last_value_extends_to_until(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        assert series.time_weighted_mean(until=5.0) == pytest.approx(1.0)

    def test_until_before_last_sample_rejected(self):
        series = TimeSeries()
        series.record(10.0, 1.0)
        with pytest.raises(ValueError):
            series.time_weighted_mean(until=5.0)

    def test_single_sample_zero_span_falls_back_to_mean(self):
        series = TimeSeries()
        series.record(3.0, 7.0)
        assert series.time_weighted_mean() == 7.0

    def test_back_to_back_same_timestamp_regression(self):
        # Several lifecycle events can land at one simulated instant; a
        # series made only of such samples has zero span and must not
        # divide by zero.
        series = TimeSeries()
        series.record(5.0, 1.0)
        series.record(5.0, 3.0)
        series.record(5.0, 5.0)
        assert series.time_weighted_mean() == pytest.approx(3.0)

    def test_same_timestamp_pair_mid_series_contributes_no_weight(self):
        series = TimeSeries()
        series.record(0.0, 2.0)
        series.record(10.0, 100.0)  # instantly replaced at t=10
        series.record(10.0, 2.0)
        assert series.time_weighted_mean(until=20.0) == pytest.approx(2.0)


class TestTimeWeighted:
    def test_constant_signal(self):
        clock = [0.0]
        tw = TimeWeighted(lambda: clock[0], initial=4.0)
        clock[0] = 10.0
        assert tw.average == pytest.approx(4.0)

    def test_step_signal(self):
        clock = [0.0]
        tw = TimeWeighted(lambda: clock[0], initial=0.0)
        clock[0] = 5.0
        tw.update(10.0)   # 0 for 5 units
        clock[0] = 10.0   # 10 for 5 units
        assert tw.average == pytest.approx(5.0)
        assert tw.current == 10.0

    def test_zero_span_returns_current(self):
        tw = TimeWeighted(lambda: 0.0, initial=7.0)
        assert tw.average == 7.0

    def test_back_to_back_same_timestamp_updates_regression(self):
        # Two updates at one simulated instant must not divide by zero
        # and must report the latest value as the (zero-span) average.
        clock = [3.0]
        tw = TimeWeighted(lambda: clock[0], initial=1.0)
        tw.update(10.0)
        tw.update(20.0)
        assert tw.current == 20.0
        assert tw.average == 20.0
        clock[0] = 13.0  # 20 for the whole non-zero span
        assert tw.average == pytest.approx(20.0)


class TestCounters:
    def test_counter_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(3)
        assert counter.value == 4

    def test_counter_set_creates_lazily(self):
        counters = CounterSet()
        assert counters.value("missing") == 0
        counters.increment("a")
        counters.increment("a", 2)
        assert counters.value("a") == 3

    def test_counter_set_as_dict_sorted(self):
        counters = CounterSet()
        counters.increment("zebra")
        counters.increment("apple")
        assert list(counters.as_dict()) == ["apple", "zebra"]


def list_series_points(max_points, samples):
    """The retained points of a bounded series kept in two plain lists
    — the decimation rule, spelled out on the storage it was written
    for, as the reference for the packed columns."""
    times, values, stride = [], [], 1
    for offer, (time, value) in enumerate(samples):
        if offer % stride:
            continue
        if len(times) >= max_points:
            del times[1::2]
            del values[1::2]
            stride *= 2
            if offer % stride:
                continue
        times.append(time)
        values.append(value)
    return times, values, stride


class TestPackedColumns:
    def test_100k_samples_retain_under_two_megabytes(self):
        """16 bytes a sample; two lists of boxed floats kept ~64."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            series = TimeSeries("profit")
            for t in range(100_000):
                series.record(t * 1.5, t * 0.25)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 100_000
        assert after - before <= 2_000_000

    @pytest.mark.parametrize("max_points", [2, 5, 8, 64])
    @pytest.mark.parametrize("n_samples", [1, 7, 64, 1_000])
    def test_decimation_keeps_the_points_the_list_code_kept(
            self, max_points, n_samples):
        samples = [(t * 0.5, float(t * t)) for t in range(n_samples)]
        series = TimeSeries(max_points=max_points)
        for time, value in samples:
            series.record(time, value)
        times, values, stride = list_series_points(max_points, samples)
        assert (series.times, series.values) == (times, values)
        assert (series.stride, series.offered) == (stride, n_samples)

    def test_columns_read_like_the_lists_they_replace(self):
        series = TimeSeries()
        series.record(1, 2)        # ints read back as the equal floats
        series.record(2.5, 3.5)
        assert isinstance(series.times, array)
        assert series.times == [1.0, 2.5] and [2.0, 3.5] == series.values
        assert not series.values != [2.0, 3.5]
        assert series.values != [2.0] and series.values != [2.0, 3.0]
        assert series.values == array("d", [2.0, 3.5])
        assert repr(series.values[0]) == "2.0"
        assert list(series.items()) == [(1.0, 2.0), (2.5, 3.5)]

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_stays_packed(self, protocol):
        series = TimeSeries("rho", max_points=4)
        for t in range(11):
            series.record(float(t), t / 10)
        clone = pickle.loads(pickle.dumps(series, protocol))
        assert type(clone.times) is type(series.times) is not list
        for both in (series, clone):
            both.record(11.0, 1.1)
            both.record(12.0, 1.2)
        assert (clone.times, clone.values) == (series.times, series.values)
        assert vars(clone).keys() == vars(series).keys()
        assert clone.time_weighted_mean() == series.time_weighted_mean()
