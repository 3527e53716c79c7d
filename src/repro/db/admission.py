"""Admission control for queries (extension; cf. the paper's UNIT [14]).

The paper's related work points at the authors' user-centric transaction
management (UNIT), which *admission-controls* incoming transactions; the
QUTS paper itself admits everything.  This module provides that missing
knob as an opt-in server extension: an admission policy sees each arriving
query plus a cheap view of the server's state and may reject it outright
(the user gets an immediate "try later" instead of a silently worthless
answer, and the server sheds the load).

Three policies are provided:

* :class:`AdmitAll` — the paper's behaviour (default);
* :class:`ProfitAwareAdmission` — rejects a query when the backlog of
  queued query work already exceeds the point where the newcomer could
  earn any QoS profit *and* its potential QoD profit is not worth the
  added load (a cheap, conservative estimate: queued service time ahead
  of it vs its ``rtmax``);
* :class:`OverloadShedding` — graceful degradation under overload: a
  backlog watermark flips the server into a *shedding* mode that rejects
  the lowest-value contracts first, and hysteresis (a lower watermark to
  leave the mode) keeps it from flapping at the boundary;
* :class:`BrownoutAdmission` — the non-rejecting sibling: under the same
  watermarks it admits everything but serves QoD-degraded answers at a
  fraction of the nominal service cost, keeping every contract in the
  ledger denominators.

Rejected queries are profit-neutral: their maxima are *not* added to the
ledger denominators (the contract was declined, not broken), and they are
counted under ``queries_rejected``.
"""

from __future__ import annotations

import typing

from .transactions import Query

if typing.TYPE_CHECKING:  # pragma: no cover
    from .server import DatabaseServer


class AdmissionPolicy:
    """Decides whether an arriving query enters the system."""

    name = "base"

    def admit(self, query: Query, server: "DatabaseServer") -> bool:
        raise NotImplementedError


class AdmitAll(AdmissionPolicy):
    """The paper's behaviour: every query is admitted."""

    name = "admit-all"

    def admit(self, query: Query, server: "DatabaseServer") -> bool:
        return True


class ProfitAwareAdmission(AdmissionPolicy):
    """Shed queries that can no longer earn their QoS profit.

    A query is rejected when the *estimated* queueing delay ahead of it
    already exceeds its ``rtmax`` by ``slack_factor`` and its QoD upside
    is less than ``qod_weight`` of its total value.  The delay estimate
    is deliberately cheap: pending queries × their mean service time —
    an upper bound under query-favouring policies, an optimistic one
    under UH (admission control cannot fix UH's starvation; that is a
    scheduling problem).
    """

    name = "profit-aware"

    def __init__(self, mean_query_service_ms: float = 7.0,
                 slack_factor: float = 2.0,
                 qod_weight: float = 0.5) -> None:
        if mean_query_service_ms <= 0:
            raise ValueError("mean_query_service_ms must be positive")
        if slack_factor < 1.0:
            raise ValueError("slack_factor must be >= 1")
        if not 0.0 <= qod_weight <= 1.0:
            raise ValueError("qod_weight must be in [0, 1]")
        self.mean_query_service_ms = mean_query_service_ms
        self.slack_factor = slack_factor
        self.qod_weight = qod_weight

    def admit(self, query: Query, server: "DatabaseServer") -> bool:
        rt_max = query.qc.rt_max
        if rt_max <= 0 or rt_max == float("inf"):
            return True  # no deadline to protect
        backlog_ms = (server.scheduler.pending_queries()
                      * self.mean_query_service_ms)
        if backlog_ms <= self.slack_factor * rt_max:
            return True
        # QoS profit is unreachable; admit only if the QoD upside alone
        # justifies the work.
        total = query.qc.total_max
        if total <= 0:
            return False
        return query.qc.qod_max / total >= self.qod_weight


class OverloadShedding(AdmissionPolicy):
    """Watermark-triggered load shedding with hysteresis.

    The policy watches the query backlog.  When it climbs past
    ``high_watermark`` pending queries the server enters *shedding* mode;
    it leaves again only once the backlog has drained to
    ``low_watermark`` (two watermarks = hysteresis, so a backlog
    oscillating around one threshold cannot flap the mode on and off).

    While shedding, the lowest-value contracts are rejected first: a
    query is shed when its ``total_max`` falls below the
    ``shed_quantile``-quantile of the most recent ``window`` contract
    values seen (a cheap running sketch of the value distribution — the
    arrival stream cannot be sorted, so "lowest first" is approximated
    against what the recent past looked like).  High-value contracts are
    served even at the height of the overload; the shed mass is the
    cheap tail, which is exactly the graceful half of "degrade
    gracefully".

    Rejections made while shedding are counted under ``queries_shed`` on
    top of the generic ``queries_rejected`` (see
    :meth:`repro.metrics.profit.ProfitLedger.on_query_rejected`).
    """

    name = "overload-shedding"

    def __init__(self, high_watermark: int = 150,
                 low_watermark: int = 75,
                 shed_quantile: float = 0.5,
                 window: int = 128) -> None:
        if high_watermark <= 0:
            raise ValueError(
                f"high_watermark must be positive, got {high_watermark}")
        if not 0 <= low_watermark < high_watermark:
            raise ValueError(
                f"need 0 <= low_watermark < high_watermark, got "
                f"{low_watermark} / {high_watermark}")
        if not 0.0 <= shed_quantile <= 1.0:
            raise ValueError(
                f"shed_quantile must be in [0, 1], got {shed_quantile}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.shed_quantile = shed_quantile
        self.window = window
        self._recent_values: list[float] = []
        self._recent_pos = 0
        self._shedding = False
        #: Mode flips, for telemetry: (entered, left).
        self.mode_changes = [0, 0]

    @property
    def is_shedding(self) -> bool:
        """True while the server is between the watermarks' hysteresis."""
        return self._shedding

    def _observe(self, value: float) -> None:
        if len(self._recent_values) < self.window:
            self._recent_values.append(value)
        else:  # ring buffer: overwrite the oldest
            self._recent_values[self._recent_pos] = value
            self._recent_pos = (self._recent_pos + 1) % self.window

    def _value_threshold(self) -> float:
        ordered = sorted(self._recent_values)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1,
                    int(self.shed_quantile * len(ordered)))
        return ordered[index]

    def admit(self, query: Query, server: "DatabaseServer") -> bool:
        backlog = server.scheduler.pending_queries()
        if not self._shedding and backlog >= self.high_watermark:
            self._shedding = True
            self.mode_changes[0] += 1
        elif self._shedding and backlog <= self.low_watermark:
            self._shedding = False
            self.mode_changes[1] += 1
        value = query.qc.total_max
        self._observe(value)
        if not self._shedding:
            return True
        return value >= self._value_threshold()


class BrownoutAdmission(AdmissionPolicy):
    """Serve degraded answers under overload instead of shedding.

    Same watermark + hysteresis machinery as :class:`OverloadShedding`,
    but the overload response is *brownout*, not rejection: every query
    is still admitted, and while the backlog is between the watermarks
    each admitted query is degraded via
    :meth:`~repro.db.transactions.Query.apply_brownout` — its service
    demand shrinks to ``degrade_factor`` of nominal (the freshness work
    is skipped) and its QoD profit is forfeited at commit.

    The crucial accounting difference from shedding: a browned-out
    contract stays in **every** ledger denominator (it was admitted and
    answered), so brownout shows up as reduced QoD profit, never as a
    shrunken baseline.  Under overload this trades the QoD half of the
    cheap contracts for keeping *all* the QoS halves alive — the
    preference-aware answer to "degrade gracefully".

    Degraded admissions are counted under ``queries_browned_out``.
    """

    name = "brownout"

    def __init__(self, high_watermark: int = 150,
                 low_watermark: int = 75,
                 degrade_factor: float = 0.4) -> None:
        if high_watermark <= 0:
            raise ValueError(
                f"high_watermark must be positive, got {high_watermark}")
        if not 0 <= low_watermark < high_watermark:
            raise ValueError(
                f"need 0 <= low_watermark < high_watermark, got "
                f"{low_watermark} / {high_watermark}")
        if not 0.0 < degrade_factor <= 1.0:
            raise ValueError(
                f"degrade_factor must be in (0, 1], got {degrade_factor}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.degrade_factor = degrade_factor
        self._degrading = False
        #: Mode flips, for telemetry: (entered, left).
        self.mode_changes = [0, 0]

    def admit(self, query: Query, server: "DatabaseServer") -> bool:
        backlog = server.scheduler.pending_queries()
        if not self._degrading and backlog >= self.high_watermark:
            self._degrading = True
            self.mode_changes[0] += 1
        elif self._degrading and backlog <= self.low_watermark:
            self._degrading = False
            self.mode_changes[1] += 1
        if self._degrading:
            query.apply_brownout(self.degrade_factor)
            server.ledger.counters.increment("queries_browned_out")
        return True
