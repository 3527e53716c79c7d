"""Unit + property tests for QC profit functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qc.functions import (LinearProfit, PiecewiseLinearProfit,
                                StepProfit, ZeroProfit)

metric_values = st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False)

NAN, INF = float("nan"), float("inf")


class TestStepProfit:
    def test_inclusive_pays_at_threshold(self):
        f = StepProfit(10.0, 50.0, inclusive=True)
        assert f.profit(0.0) == 10.0
        assert f.profit(50.0) == 10.0
        assert f.profit(50.0001) == 0.0

    def test_exclusive_does_not_pay_at_threshold(self):
        f = StepProfit(10.0, 1.0, inclusive=False)
        assert f.profit(0.0) == 10.0
        assert f.profit(0.999) == 10.0
        assert f.profit(1.0) == 0.0

    def test_uumax_one_semantics(self):
        """uumax=1: 'QoD profit is gained only when no update is missed'."""
        f = StepProfit(5.0, 1.0, inclusive=False)
        assert f.profit(0.0) == 5.0  # zero missed updates
        assert f.profit(1.0) == 0.0  # one missed update

    def test_max_profit_and_zero_after(self):
        f = StepProfit(7.0, 30.0)
        assert f.max_profit == 7.0
        assert f.zero_after == 30.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            StepProfit(-1.0, 10.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            StepProfit(1.0, -10.0)

    def test_callable_interface(self):
        f = StepProfit(2.0, 5.0)
        assert f(3.0) == 2.0

    @given(metric_values, metric_values)
    @settings(max_examples=100)
    def test_non_increasing(self, a, b):
        f = StepProfit(10.0, 42.0)
        lo, hi = min(a, b), max(a, b)
        assert f.profit(lo) >= f.profit(hi)


class TestLinearProfit:
    def test_endpoints(self):
        f = LinearProfit(10.0, 100.0)
        assert f.profit(0.0) == 10.0
        assert f.profit(100.0) == 0.0
        assert f.profit(200.0) == 0.0

    def test_midpoint(self):
        f = LinearProfit(10.0, 100.0)
        assert f.profit(50.0) == pytest.approx(5.0)
        assert f.profit(25.0) == pytest.approx(7.5)

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            LinearProfit(10.0, 0.0)

    def test_negative_metric_clamps_to_max(self):
        assert LinearProfit(10.0, 100.0).profit(-5.0) == 10.0

    @given(metric_values, metric_values)
    @settings(max_examples=100)
    def test_non_increasing(self, a, b):
        f = LinearProfit(33.0, 77.0)
        lo, hi = min(a, b), max(a, b)
        assert f.profit(lo) >= f.profit(hi) - 1e-12

    @given(metric_values)
    @settings(max_examples=100)
    def test_bounded(self, x):
        f = LinearProfit(33.0, 77.0)
        assert 0.0 <= f.profit(x) <= 33.0


class TestPiecewiseLinearProfit:
    def test_interpolation(self):
        f = PiecewiseLinearProfit([(0.0, 10.0), (10.0, 10.0),
                                   (20.0, 0.0)])
        assert f.profit(5.0) == 10.0
        assert f.profit(15.0) == pytest.approx(5.0)
        assert f.profit(25.0) == 0.0

    def test_before_first_point_constant(self):
        f = PiecewiseLinearProfit([(10.0, 8.0), (20.0, 0.0)])
        assert f.profit(0.0) == 8.0

    def test_after_last_point_constant(self):
        f = PiecewiseLinearProfit([(0.0, 8.0), (20.0, 2.0)])
        assert f.profit(100.0) == 2.0

    def test_max_profit_is_first(self):
        f = PiecewiseLinearProfit([(0.0, 8.0), (20.0, 2.0)])
        assert f.max_profit == 8.0

    def test_zero_after_finds_first_zero(self):
        f = PiecewiseLinearProfit([(0.0, 8.0), (20.0, 0.0), (30.0, 0.0)])
        assert f.zero_after == 20.0

    def test_zero_after_inf_when_never_zero(self):
        f = PiecewiseLinearProfit([(0.0, 8.0), (20.0, 2.0)])
        assert f.zero_after == float("inf")

    def test_increasing_profit_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            PiecewiseLinearProfit([(0.0, 1.0), (10.0, 5.0)])

    def test_non_monotone_metric_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinearProfit([(10.0, 5.0), (10.0, 1.0)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearProfit([(0.0, 5.0)])

    def test_negative_profit_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearProfit([(0.0, 5.0), (10.0, -1.0)])

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False)),
        min_size=2, max_size=8),
        metric_values, metric_values)
    @settings(max_examples=100)
    def test_valid_polylines_are_non_increasing(self, raw_points, a, b):
        # Normalise the raw points into a valid polyline.
        xs = sorted({round(x, 6) for x, __ in raw_points})
        if len(xs) < 2:
            return
        ys = sorted((y for __, y in raw_points), reverse=True)
        points = list(zip(xs, ys[:len(xs)]))
        if len(points) < 2:
            return
        f = PiecewiseLinearProfit(points)
        lo, hi = min(a, b), max(a, b)
        assert f.profit(lo) >= f.profit(hi) - 1e-9


class TestLibraryBoundary:
    """A NaN or infinite amount would be paid into ``ledger.total_max``
    and poison every percentage; a NaN threshold compares False both
    ways.  Each is refused at construction; ``threshold = inf`` (a
    contract that never expires) stays legal."""

    @pytest.mark.parametrize("amount", [NAN, INF, -INF],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        lambda amount: StepProfit(amount, 5.0),
        lambda amount: LinearProfit(amount, 5.0),
        lambda amount: PiecewiseLinearProfit([(0.0, amount), (9.0, 0.0)]),
        lambda amount: PiecewiseLinearProfit([(0.0, 5.0), (9.0, amount)]),
    ], ids=["step", "linear", "piecewise-first", "piecewise-last"])
    def test_non_finite_amount_rejected(self, build, amount):
        with pytest.raises(ValueError, match="finite"):
            build(amount)

    @pytest.mark.parametrize("build", [
        lambda: StepProfit(5.0, NAN),
        lambda: StepProfit(5.0, NAN, inclusive=False),
        lambda: LinearProfit(5.0, NAN),
        lambda: PiecewiseLinearProfit([(NAN, 5.0), (9.0, 0.0)]),
        lambda: PiecewiseLinearProfit([(0.0, 5.0), (NAN, 0.0)]),
    ], ids=["step", "step-exclusive", "linear", "piecewise-first",
            "piecewise-last"])
    def test_nan_threshold_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_infinite_threshold_stays_legal(self):
        assert StepProfit(5.0, INF).profit(1e300) == 5.0
        assert LinearProfit(5.0, INF).profit(1e300) == 5.0
        assert PiecewiseLinearProfit([(0.0, 5.0), (INF, 0.0)]).profit(
            1e300) == 5.0


class TestZeroProfit:
    def test_always_zero(self):
        f = ZeroProfit()
        assert f.profit(0.0) == 0.0
        assert f.profit(1e9) == 0.0
        assert f.max_profit == 0.0
        assert f.zero_after == 0.0
