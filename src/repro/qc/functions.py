"""Profit functions for Quality Contracts.

A QC prices a quality metric (response time for QoS, staleness for QoD) with
a **non-increasing** function from the metric's value to dollars of profit
(§2.2).  The paper instantiates two shapes, both reproduced here, plus a
general piecewise-linear form used by the extension examples:

* :class:`StepProfit` — full profit up to a threshold, zero after
  (Figure 2);
* :class:`LinearProfit` — profit decays linearly from the maximum at metric
  value 0 to zero at the threshold (Figure 3);
* :class:`PiecewiseLinearProfit` — any non-increasing polyline.

Conventions chosen where the paper's figures leave slack (documented in
DESIGN.md):

* step QoS pays while ``rt <= rtmax`` (deadline inclusive);
* step QoD pays while ``staleness < uumax`` — §5.1.1 states that with
  ``uumax = 1`` "QoD profit is gained only when no update is missed", so the
  threshold is exclusive.  Both behaviours are selectable via ``inclusive``.
"""

from __future__ import annotations

import math
import typing


class ProfitFunction:
    """A non-increasing map from a quality-metric value to profit."""

    __slots__ = ()

    def profit(self, metric_value: float) -> float:
        """Profit earned when the metric comes out at ``metric_value``."""
        raise NotImplementedError

    @property
    def max_profit(self) -> float:
        """The largest attainable profit (the profit at metric value 0)."""
        raise NotImplementedError

    @property
    def zero_after(self) -> float:
        """Metric value beyond which no profit is attainable (may be inf)."""
        raise NotImplementedError

    def __call__(self, metric_value: float) -> float:
        return self.profit(metric_value)


class ZeroProfit(ProfitFunction):
    """A contract dimension the user does not care about (pays nothing)."""

    __slots__ = ()

    def profit(self, metric_value: float) -> float:
        return 0.0

    @property
    def max_profit(self) -> float:
        return 0.0

    @property
    def zero_after(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "ZeroProfit()"


class StepProfit(ProfitFunction):
    """Full profit up to a threshold, nothing after (Figure 2).

    ``inclusive=True`` pays at ``metric_value == threshold`` (used for QoS:
    committing exactly at the deadline still pays); ``inclusive=False`` does
    not (used for QoD with ``uumax``: "no update missed").
    """

    __slots__ = ("amount", "threshold", "inclusive")

    def __init__(self, amount: float, threshold: float,
                 inclusive: bool = True) -> None:
        # Each test is written so that NaN fails it too.
        if not 0 <= amount < math.inf:
            raise ValueError(
                f"profit amount must be finite and >= 0, got {amount}")
        if not threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.amount = amount
        self.threshold = threshold
        self.inclusive = inclusive

    def __repr__(self) -> str:
        op = "<=" if self.inclusive else "<"
        return f"StepProfit(${self.amount} while metric {op} {self.threshold})"

    def profit(self, metric_value: float) -> float:
        if self.inclusive:
            return self.amount if metric_value <= self.threshold else 0.0
        return self.amount if metric_value < self.threshold else 0.0

    @property
    def max_profit(self) -> float:
        return self.amount

    @property
    def zero_after(self) -> float:
        return self.threshold


class LinearProfit(ProfitFunction):
    """Profit decaying linearly from ``amount`` at 0 to zero at ``threshold``
    (Figure 3)."""

    __slots__ = ("amount", "threshold")

    def __init__(self, amount: float, threshold: float) -> None:
        if not 0 <= amount < math.inf:
            raise ValueError(
                f"profit amount must be finite and >= 0, got {amount}")
        if not threshold > 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.amount = amount
        self.threshold = threshold

    def __repr__(self) -> str:
        return f"LinearProfit(${self.amount} -> 0 at {self.threshold})"

    def profit(self, metric_value: float) -> float:
        if metric_value >= self.threshold:
            return 0.0
        if metric_value <= 0:
            return self.amount
        return self.amount * (1.0 - metric_value / self.threshold)

    @property
    def max_profit(self) -> float:
        return self.amount

    @property
    def zero_after(self) -> float:
        return self.threshold


class ScaledProfit(ProfitFunction):
    """``factor`` times another profit function (same shape, scaled $).

    Used by the shard planner to hand each sub-query a proportional slice
    of the parent contract: the slice keeps the parent's deadlines (the
    thresholds are untouched) so priority-based schedulers order the
    sub-query like the parent, while the dollar amounts stay bounded by
    the parent's.  ``factor = 0`` degenerates to :class:`ZeroProfit`
    semantics — construct that instead where possible.
    """

    __slots__ = ("base", "factor")

    def __init__(self, base: ProfitFunction, factor: float) -> None:
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {factor}")
        self.base = base
        self.factor = factor

    def __repr__(self) -> str:
        return f"ScaledProfit({self.factor:g} * {self.base!r})"

    def profit(self, metric_value: float) -> float:
        return self.factor * self.base.profit(metric_value)

    @property
    def max_profit(self) -> float:
        return self.factor * self.base.max_profit

    @property
    def zero_after(self) -> float:
        return self.base.zero_after


class PiecewiseLinearProfit(ProfitFunction):
    """An arbitrary non-increasing polyline ``[(metric, profit), ...]``.

    The profit is constant at the first point's value before it, linearly
    interpolated between points, and constant at the last point's value
    after it.  Supplied points must be non-increasing in profit — QCs are
    defined as non-increasing functions (§2.2) and this is validated.
    """

    __slots__ = ("points",)

    def __init__(self,
                 points: typing.Sequence[tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two points")
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if not all(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError("metric values must be strictly increasing "
                             "(and not NaN)")
        if not all(0 <= y < math.inf for y in ys):
            raise ValueError("profit values must be finite and >= 0")
        if any(b > a for a, b in zip(ys, ys[1:])):
            raise ValueError("profit must be non-increasing "
                             "(QC functions are non-increasing)")
        self.points = [(float(x), float(y)) for x, y in points]

    def __repr__(self) -> str:
        return f"PiecewiseLinearProfit({self.points!r})"

    def profit(self, metric_value: float) -> float:
        points = self.points
        if metric_value <= points[0][0]:
            return points[0][1]
        if metric_value >= points[-1][0]:
            return points[-1][1]
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x0 <= metric_value <= x1:
                if x1 == x0:
                    return y1
                frac = (metric_value - x0) / (x1 - x0)
                return y0 + frac * (y1 - y0)
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def max_profit(self) -> float:
        return self.points[0][1]

    @property
    def zero_after(self) -> float:
        for x, y in self.points:
            if y == 0.0:
                return x
        return float("inf")
