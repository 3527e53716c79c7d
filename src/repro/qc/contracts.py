"""Quality Contracts: per-query pricing of QoS and QoD (§2.2).

A :class:`QualityContract` bundles one profit function over response time
(QoS) and one over staleness (QoD), plus the composition rule:

* **QoS-independent** (the paper's evaluation mode): QoD profit is earned
  whether or not the QoS deadline was met, but the query must finish within
  a *maximum lifetime* or it is dropped and earns nothing;
* **QoS-dependent**: QoD profit is earned only if QoS profit is positive.

Convenience constructors build the four-parameter step and linear QCs of
Figures 2 and 3 directly from ``(qosmax, rtmax, qodmax, uumax)``.
"""

from __future__ import annotations

import enum

from .functions import (LinearProfit, ProfitFunction, StepProfit, ZeroProfit)

#: Default maximum lifetime for a query, in milliseconds.  The paper does
#: not publish its value; it must be large enough that even the
#: update-favouring baseline (UH, mean response time ~11.6 s in Figure 1)
#: completes most queries, otherwise Figure 8a's near-maximal UH QoD profit
#: would be impossible.  150 s satisfies that while still bounding query
#: residence ("to avoid keeping queries in the system forever").
DEFAULT_LIFETIME_MS = 150_000.0


class CompositionMode(enum.Enum):
    """How QoS and QoD profits combine into the contract's total."""

    QOS_INDEPENDENT = "qos-independent"
    QOS_DEPENDENT = "qos-dependent"


class QualityContract:
    """User preferences for one query: profit over QoS and over QoD."""

    __slots__ = ("qos", "qod", "mode", "lifetime", "qos_max", "qod_max",
                 "total_max", "rt_max", "uu_max")

    def __init__(self, qos: ProfitFunction, qod: ProfitFunction,
                 mode: CompositionMode = CompositionMode.QOS_INDEPENDENT,
                 lifetime: float = DEFAULT_LIFETIME_MS) -> None:
        if not lifetime > 0:  # NaN fails too; inf is legal
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        self.qos = qos
        self.qod = qod
        self.mode = mode
        #: Maximum residence time (ms) before the query is dropped.
        self.lifetime = lifetime
        # The maxima are the denominators of every profit percentage in
        # the paper and are read per query by schedulers, routers and
        # admission; a contract is never changed after construction
        # (``scaled`` builds a new one), so they are read once, here.
        #: ``qosmax``: best attainable QoS profit.
        self.qos_max: float = qos.max_profit
        #: ``qodmax``: best attainable QoD profit.
        self.qod_max: float = qod.max_profit
        #: Best attainable total profit.
        self.total_max: float = self.qos_max + self.qod_max
        #: ``rtmax``: response time beyond which QoS profit is zero.
        self.rt_max: float = qos.zero_after
        #: ``uumax``: staleness beyond which QoD profit is zero.
        self.uu_max: float = qod.zero_after

    def __repr__(self) -> str:
        return (f"QualityContract(qos={self.qos!r}, qod={self.qod!r}, "
                f"mode={self.mode.value})")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, response_time: float,
                 staleness: float) -> tuple[float, float]:
        """``(qos_profit, qod_profit)`` for a query that committed.

        The lifetime rule is enforced by the server (a query past its
        lifetime never commits), so this only applies the composition mode.
        """
        qos_profit = self.qos.profit(response_time)
        qod_profit = self.qod.profit(staleness)
        if (self.mode is CompositionMode.QOS_DEPENDENT
                and qos_profit <= 0.0):
            qod_profit = 0.0
        return qos_profit, qod_profit

    def scaled(self, factor: float) -> "QualityContract":
        """A copy whose dollar amounts are ``factor`` times this one's.

        Thresholds (``rtmax``, ``uumax``), composition mode, and lifetime
        are preserved, so deadline-driven schedulers treat the scaled
        contract exactly like the original — only its weight in
        profit-mass-driven policies (QUTS ρ) shrinks.  The shard planner
        uses this to split one contract across fan-out sub-queries.
        """
        from .functions import ScaledProfit
        return QualityContract(ScaledProfit(self.qos, factor),
                               ScaledProfit(self.qod, factor),
                               mode=self.mode, lifetime=self.lifetime)

    # ------------------------------------------------------------------
    # The paper's two canonical shapes
    # ------------------------------------------------------------------
    @classmethod
    def step(cls, qosmax: float, rtmax: float, qodmax: float, uumax: float,
             mode: CompositionMode = CompositionMode.QOS_INDEPENDENT,
             lifetime: float = DEFAULT_LIFETIME_MS) -> "QualityContract":
        """The four-parameter step QC of Figure 2.

        QoS pays ``qosmax`` while ``rt <= rtmax``; QoD pays ``qodmax`` while
        ``staleness < uumax`` (so ``uumax=1`` requires zero missed updates).
        """
        qos = (StepProfit(qosmax, rtmax, inclusive=True)
               if qosmax > 0 else ZeroProfit())
        qod = (StepProfit(qodmax, uumax, inclusive=False)
               if qodmax > 0 else ZeroProfit())
        return cls(qos, qod, mode=mode, lifetime=lifetime)

    @classmethod
    def linear(cls, qosmax: float, rtmax: float, qodmax: float, uumax: float,
               mode: CompositionMode = CompositionMode.QOS_INDEPENDENT,
               lifetime: float = DEFAULT_LIFETIME_MS) -> "QualityContract":
        """The four-parameter linear QC of Figure 3."""
        qos = (LinearProfit(qosmax, rtmax) if qosmax > 0 else ZeroProfit())
        qod = (LinearProfit(qodmax, uumax) if qodmax > 0 else ZeroProfit())
        return cls(qos, qod, mode=mode, lifetime=lifetime)

    @classmethod
    def free(cls, lifetime: float = DEFAULT_LIFETIME_MS) -> "QualityContract":
        """A contract that pays nothing (used by non-QC experiments like
        Figure 1, where only raw response time and staleness matter)."""
        return cls(ZeroProfit(), ZeroProfit(), lifetime=lifetime)
