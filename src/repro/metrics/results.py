"""Run results: everything a figure or table needs from one simulation.

:class:`SimulationResult` bundles the profit ledger, the scheduler's own
telemetry (e.g. QUTS's ρ trajectory), lock-manager statistics, and run
metadata.  It also provides the smoothed profit curves of Figure 9 (a
5-second moving window over the ledger's per-second buckets).
"""

from __future__ import annotations

import math
import typing

from repro.sim.monitor import TimeSeries

from .profit import BUCKET_MS, ProfitLedger

#: Figure 9's smoothing: "a moving-window size of 5 seconds" (ms).
FIG9_WINDOW_MS = 5_000.0

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.hooks import TelemetrySession


class SimulationResult:
    """The outcome of one scheduler × workload simulation."""

    def __init__(self, scheduler_name: str, duration: float,
                 ledger: ProfitLedger,
                 rho_series: TimeSeries | None = None,
                 lock_stats: dict[str, int] | None = None,
                 metadata: dict[str, typing.Any] | None = None,
                 telemetry: "TelemetrySession | None" = None) -> None:
        self.scheduler_name = scheduler_name
        #: Simulated duration in milliseconds.
        self.duration = duration
        self.ledger = ledger
        #: QUTS's ρ over time (None for other schedulers) — Figure 9d.
        self.rho_series = rho_series
        self.lock_stats = lock_stats or {}
        self.metadata = metadata or {}
        #: The run's :class:`~repro.telemetry.hooks.TelemetrySession`
        #: (None unless the run was started with ``telemetry=``).
        self.telemetry = telemetry

    def __repr__(self) -> str:
        return (f"<SimulationResult {self.scheduler_name} "
                f"Q%={self.ledger.total_percent:.3f} "
                f"rt={self.mean_response_time:.1f}ms "
                f"#uu={self.mean_staleness:.3f}>")

    # ------------------------------------------------------------------
    # Figure 1 metrics
    # ------------------------------------------------------------------
    @property
    def mean_response_time(self) -> float:
        """Average response time over committed queries (ms)."""
        return self.ledger.response_time.mean

    @property
    def mean_staleness(self) -> float:
        """Average ``#uu`` observed by committed queries."""
        return self.ledger.staleness.mean

    # ------------------------------------------------------------------
    # Profit views (Figures 6-10)
    # ------------------------------------------------------------------
    @property
    def qos_percent(self) -> float:
        return self.ledger.qos_percent

    @property
    def qod_percent(self) -> float:
        return self.ledger.qod_percent

    @property
    def total_percent(self) -> float:
        return self.ledger.total_percent

    @property
    def counters(self) -> dict[str, int]:
        return self.ledger.counters.as_dict()

    # ------------------------------------------------------------------
    # Figure 9 time series
    # ------------------------------------------------------------------
    def profit_timeline(self, gained: bool = True) -> TimeSeries:
        """Profit per second (QoS + QoD), moving-window smoothed.

        One point per second of the run, stamped at the middle of its
        second; ``gained=False`` returns the *submitted maxima* instead
        (the dashed "ideal" lines of Figure 9a-c).
        """
        buckets = (self.ledger.gained_per_second if gained
                   else self.ledger.submitted_per_second)
        timeline = TimeSeries("gained" if gained else "submitted")
        for second in range(max(1, math.ceil(self.duration / BUCKET_MS))):
            timeline.record((second + 0.5) * BUCKET_MS,
                            buckets[second] if second < len(buckets)
                            else 0.0)
        return timeline.moving_window_average(FIG9_WINDOW_MS)


def improvement_percent(ours: float, baseline: float) -> float:
    """"X performs N% better than Y" as the paper phrases it (§5.1.2)."""
    if baseline <= 0:
        return float("inf") if ours > 0 else 0.0
    return (ours - baseline) / baseline * 100.0
