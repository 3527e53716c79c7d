"""Profit accounting: the ledger behind every figure in the paper.

The ledger tracks, over a simulation run (symbols from Table 1):

* ``QOSmax`` / ``QODmax`` / ``Qmax`` — the maximum profit *submitted*
  (summed over all queries' contracts);
* ``QOS`` / ``QOD`` / ``Q`` — the profit actually *gained*;
* the profit-percentage views the figures plot (``QOS% = QOS / Qmax`` etc.);
* submitted maxima and gained profit per second, QoS + QoD (Figure 9's
  curves) — one float per second of run, however many queries;
* response-time and staleness tallies (Figure 1);
* transaction outcome counters.

:class:`ProfitRollup` reads several ledgers (a portal's replicas, a
sharded portal's shards plus its planner) as one run.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.db.transactions import Query, Update
from repro.sim.monitor import CounterSet, Tally

#: Width of the per-second buckets (ms): Figure 9 plots profit per second.
BUCKET_MS = 1_000.0


class ProfitLedger:
    """Accumulates profit, latency, and staleness statistics for one run."""

    def __init__(self) -> None:
        # Submitted maxima (denominators).
        self.qos_max_submitted = 0.0
        self.qod_max_submitted = 0.0
        # Gained profit (numerators).
        self.qos_gained = 0.0
        self.qod_gained = 0.0

        # Distributions.
        self.response_time = Tally("response_time_ms")
        self.staleness = Tally("staleness_uu")

        # Outcome counters.
        self.counters = CounterSet()

        # Figure 9: ``QOSmax + QODmax`` submitted and ``QOS + QOD``
        # gained in second ``i`` of the run (``int(now / BUCKET_MS)``).
        self.submitted_per_second: list[float] = []
        self.gained_per_second: list[float] = []

    def __repr__(self) -> str:
        return (f"<ProfitLedger Q={self.total_gained:.2f}/"
                f"{self.total_max:.2f} ({self.total_percent:.1%})>")

    # ------------------------------------------------------------------
    # Event hooks (called by the DatabaseServer)
    # ------------------------------------------------------------------
    def on_query_submitted(self, query: Query, now: float) -> None:
        qos_max = query.qc.qos_max
        qod_max = query.qc.qod_max
        self.qos_max_submitted += qos_max
        self.qod_max_submitted += qod_max
        # Bucket updates are inlined (here and at commit): a helper
        # would be one more Python call per hook on the hot path.
        buckets = self.submitted_per_second
        second = int(now / BUCKET_MS)
        if second >= len(buckets):
            buckets.extend([0.0] * (second + 1 - len(buckets)))
        buckets[second] += qos_max
        buckets[second] += qod_max
        self.counters.increment("queries_submitted")

    def on_query_committed(self, query: Query, now: float) -> None:
        self.qos_gained += query.qos_profit
        self.qod_gained += query.qod_profit
        buckets = self.gained_per_second
        second = int(now / BUCKET_MS)
        if second >= len(buckets):
            buckets.extend([0.0] * (second + 1 - len(buckets)))
        buckets[second] += query.qos_profit
        buckets[second] += query.qod_profit
        self.response_time.observe(query.response_time())
        if query.staleness is not None:
            self.staleness.observe(query.staleness)
        self.counters.increment("queries_committed")

    def on_query_dropped(self, query: Query, now: float) -> None:
        self.counters.increment("queries_dropped_lifetime")

    def on_query_rejected(self, query: Query, now: float,
                          shed: bool = False) -> None:
        """An admission policy declined the query before it entered.

        ``shed=True`` marks rejections made while the policy was in
        overload-shedding mode (graceful degradation), counted separately
        so robustness reports can distinguish steady-state admission
        control from emergency load shedding.
        """
        self.counters.increment("queries_rejected")
        if shed:
            self.counters.increment("queries_shed")

    def on_query_lost_to_crash(self, query: Query, now: float) -> None:
        """The query died with a crashed replica and exhausted its
        failover retries (or the run ended mid-retry).  Its contract's
        maxima stay in the denominators — the contract was broken, not
        declined — so crashes show up as lost profit, never as silently
        shrunk totals."""
        self.counters.increment("queries_lost_crash")

    def on_query_unfinished(self, query: Query) -> None:
        self.counters.increment("queries_unfinished")

    def on_update_applied(self, update: Update, now: float) -> None:
        self.counters.increment("updates_applied")

    def on_update_superseded(self, update: Update, now: float) -> None:
        self.counters.increment("updates_superseded")

    def on_update_unfinished(self, update: Update) -> None:
        self.counters.increment("updates_unfinished")

    def on_restart(self, victim_is_query: bool) -> None:
        self.counters.increment(
            "restarts_queries" if victim_is_query else "restarts_updates")

    # ------------------------------------------------------------------
    # Aggregates (Table 1 symbols)
    # ------------------------------------------------------------------
    @property
    def total_max(self) -> float:
        """``Qmax = QOSmax + QODmax``."""
        return self.qos_max_submitted + self.qod_max_submitted

    @property
    def total_gained(self) -> float:
        """``Q = QOS + QOD``."""
        return self.qos_gained + self.qod_gained

    @property
    def qos_percent(self) -> float:
        """``QOS%``: gained QoS profit as a fraction of ``Qmax``.

        This matches the figures, where the stacked QoS/QoD bars sum to the
        total profit percentage (so each share is normalised by ``Qmax``,
        not by its own maximum).
        """
        return self.qos_gained / self.total_max if self.total_max else 0.0

    @property
    def qod_percent(self) -> float:
        """``QOD%``: gained QoD profit as a fraction of ``Qmax``."""
        return self.qod_gained / self.total_max if self.total_max else 0.0

    @property
    def total_percent(self) -> float:
        """``Q / Qmax``: the total height of the figures' stacked bars.

        The gained sums are added in commit order and the maxima in
        arrival order, so earning everything can overshoot 1 by an ulp.
        """
        return (min(1.0, self.total_gained / self.total_max)
                if self.total_max else 0.0)

    @property
    def qos_max_percent(self) -> float:
        """``QOSmax%``: the diagonal line of Figures 7/8."""
        return (self.qos_max_submitted / self.total_max
                if self.total_max else 0.0)

    @property
    def qod_max_percent(self) -> float:
        return (self.qod_max_submitted / self.total_max
                if self.total_max else 0.0)


@dataclasses.dataclass(frozen=True)
class ProfitRollup:
    """Many ledgers read as one run: the portal tiers' profit views.

    Pinned fingerprints hash these bit for bit, so every sum keeps the
    association it has always had (``sum``'s left fold): ``total_max``
    and ``total_gained`` fold each group, then the group sums; the QoS,
    QoD and response-time sums fold flat over every ledger in group
    order; counters add up by name in first-seen key order.  A
    replicated portal is one group (its replicas); a sharded portal is
    one group per shard, then its planner's ledger as a last group.
    """

    total_max: float
    total_gained: float
    total_percent: float
    qos_percent: float
    qod_percent: float
    mean_response_time: float
    counters: dict[str, int]

    @classmethod
    def of(cls, groups: typing.Sequence[typing.Sequence[ProfitLedger]],
           counters: typing.Iterable[typing.Mapping[str, int]],
           ) -> "ProfitRollup":
        ledgers = [ledger for group in groups for ledger in group]
        total_max = sum(sum(ledger.total_max for ledger in group)
                        for group in groups)
        gained = sum(sum(ledger.total_gained for ledger in group)
                     for group in groups)
        committed = sum(ledger.response_time.count for ledger in ledgers)
        merged: dict[str, int] = {}
        for counts in counters:
            for name, value in counts.items():
                merged[name] = merged.get(name, 0) + value

        def share(part: float) -> float:
            return part / total_max if total_max else 0.0

        return cls(
            total_max, gained,
            # Summed in different orders, earning everything can
            # overshoot its maximum by an ulp.
            min(1.0, share(gained)),
            share(sum(ledger.qos_gained for ledger in ledgers)),
            share(sum(ledger.qod_gained for ledger in ledgers)),
            (sum(ledger.response_time.total for ledger in ledgers)
             / committed if committed else 0.0),
            merged)
