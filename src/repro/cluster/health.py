"""Gray-failure defense: suspicion scoring and per-replica breakers.

Fail-stop faults flip the replica health bit and every router already
honours it.  *Gray* failures do not: a limping replica still answers
(slowly), a lossy broadcast link still delivers (some of) the update
stream, and a replica with a corrupt WAL looks healthy until it next
restarts.  This module supplies the two defense primitives the portal
wires in when a :class:`HealthConfig` is attached:

* :class:`FailureDetector` — an accrual-style suspicion score per
  replica, computed purely from *simulated-clock* observations: an EWMA
  of committed-query response times compared against the cluster-wide
  EWMA (a replica that is consistently slower than its peers becomes
  suspect), plus a half-life-decayed penalty for missed/out-of-order
  broadcast sequence numbers, late deliveries, and dropped queries.

* :class:`CircuitBreaker` — the classic closed → open → half-open
  automaton, one per replica, consulted by every router *alongside* the
  health bit.  Opening uses deterministic jittered backoff drawn from a
  named :class:`~repro.sim.rng.RandomStream`, so probe storms
  de-synchronise across replicas while runs stay bit-identical.

Both objects are pure state machines on the simulated clock: they never
read the host clock, never draw from unseeded randomness, and are only
mutated from portal callbacks (which execute at deterministic event
times).  A portal constructed without a :class:`HealthConfig` creates
neither, so the fault-free fast path is unchanged.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.rng import RandomStream

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class HealthConfig:
    """Tuning knobs for the detector + breaker pair (plain, picklable).

    The defaults are deliberately conservative: a replica must look
    ~2.5x slower than the cluster mean (suspicion ≥ ``trip_suspicion``),
    or rack up several gap/drop observations, before its breaker trips.
    """

    #: EWMA weight for fresh response-time samples (0 < alpha <= 1).
    rt_alpha: float = 0.2
    #: Suspicion at/above which a CLOSED breaker trips.
    trip_suspicion: float = 1.5
    #: Suspicion below which a HALF_OPEN probe is allowed to re-close.
    clear_suspicion: float = 0.75
    #: Suspicion points per missed/out-of-order broadcast observation.
    gap_points: float = 0.25
    #: Suspicion points per failed (dropped/expired-on-server) query.
    failure_points: float = 0.5
    #: Half-life of the event-score decay, simulated milliseconds.
    gap_halflife_ms: float = 10_000.0
    #: Initial OPEN dwell before the first half-open probe.
    open_ms: float = 2_000.0
    #: OPEN dwell multiplier after each failed probe.
    probe_backoff: float = 2.0
    #: Cap on the OPEN dwell (keeps probe cadence bounded).
    max_open_ms: float = 30_000.0
    #: Probe-delay jitter: dwell is scaled by U[1-jitter, 1+jitter].
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.rt_alpha <= 1.0:
            raise ValueError(f"rt_alpha must be in (0, 1], got "
                             f"{self.rt_alpha}")
        if not self.clear_suspicion < self.trip_suspicion:
            raise ValueError(
                f"clear_suspicion ({self.clear_suspicion}) must be below "
                f"trip_suspicion ({self.trip_suspicion})")
        if not 0 < self.open_ms <= self.max_open_ms:
            raise ValueError(
                f"need 0 < open_ms <= max_open_ms, got "
                f"{self.open_ms} / {self.max_open_ms}")
        if not self.probe_backoff >= 1.0:
            raise ValueError(f"probe_backoff must be >= 1, got "
                             f"{self.probe_backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if not self.gap_halflife_ms > 0:
            raise ValueError(f"gap_halflife_ms must be positive, got "
                             f"{self.gap_halflife_ms}")
        if not (self.gap_points >= 0 and self.failure_points >= 0):
            raise ValueError(
                f"gap_points / failure_points must be >= 0, got "
                f"{self.gap_points} / {self.failure_points}")


class FailureDetector:
    """Per-replica suspicion from response times and broadcast gaps.

    ``suspicion(i, now)`` combines two signals:

    * *relative slowness* — ``max(0, ewma_i / ewma_cluster - 1)``: zero
      while the replica tracks its peers, 1.0 when it is twice as slow;
    * *event score* — gap/late/drop observations each add fixed points
      which decay with half-life :attr:`HealthConfig.gap_halflife_ms`,
      so a healed link is forgiven after a few half-lives.
    """

    __slots__ = ("config", "_rt", "_cluster_rt", "_events", "_stamps")

    def __init__(self, n_replicas: int, config: HealthConfig) -> None:
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got "
                             f"{n_replicas}")
        self.config = config
        self._rt: list[float | None] = [None] * n_replicas
        self._cluster_rt: float | None = None
        self._events = [0.0] * n_replicas
        self._stamps = [0.0] * n_replicas

    def __repr__(self) -> str:
        return (f"<FailureDetector rt={self._rt} "
                f"events={[round(e, 3) for e in self._events]}>")

    def _decayed(self, index: int, now: float) -> float:
        score = self._events[index]
        if score == 0.0:
            return 0.0
        age = now - self._stamps[index]
        if age <= 0.0:
            return score
        return score * 0.5 ** (age / self.config.gap_halflife_ms)

    def _bump(self, index: int, points: float, now: float) -> None:
        self._events[index] = self._decayed(index, now) + points
        self._stamps[index] = now

    # -- observations ---------------------------------------------------
    def observe_response(self, index: int, rt_ms: float,
                         now: float) -> None:
        """A query committed on ``index`` with response time ``rt_ms``."""
        alpha = self.config.rt_alpha
        current = self._rt[index]
        self._rt[index] = (rt_ms if current is None
                           else current + alpha * (rt_ms - current))
        cluster = self._cluster_rt
        self._cluster_rt = (rt_ms if cluster is None
                            else cluster + alpha * (rt_ms - cluster))

    def observe_failure(self, index: int, now: float) -> None:
        """A query routed to ``index`` died there (dropped/expired)."""
        self._bump(index, self.config.failure_points, now)

    def observe_gap(self, index: int, missed: int, now: float) -> None:
        """``missed`` broadcast sequence numbers never reached ``index``
        (or arrived out of order / late)."""
        if missed > 0:
            self._bump(index, self.config.gap_points * missed, now)

    # -- the score ------------------------------------------------------
    def suspicion(self, index: int, now: float) -> float:
        slowness = 0.0
        rt = self._rt[index]
        cluster = self._cluster_rt
        if rt is not None and cluster is not None and cluster > 0.0:
            slowness = max(0.0, rt / cluster - 1.0)
        return slowness + self._decayed(index, now)


class CircuitBreaker:
    """Closed → open → half-open, with deterministic jittered probes.

    Routers call :meth:`routable` when picking a replica; the portal
    calls :meth:`record_routed` when a query actually lands (consuming
    the half-open probe slot) and :meth:`observe` with each query
    outcome plus the detector's current suspicion.  All breakers of one
    portal share a single named random stream; draws happen only when a
    breaker opens, in deterministic event order.
    """

    __slots__ = ("config", "state", "retry_at", "trips", "probes",
                 "_rng", "_open_ms")

    def __init__(self, config: HealthConfig, rng: "RandomStream") -> None:
        self.config = config
        self.state = CLOSED
        #: Simulated time of the next allowed half-open probe (only
        #: meaningful while OPEN).
        self.retry_at = 0.0
        self.trips = 0
        self.probes = 0
        self._rng = rng
        self._open_ms = config.open_ms

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state} trips={self.trips} "
                f"retry_at={self.retry_at:.0f}>")

    def routable(self, now: float) -> bool:
        """May a router send a query here right now?

        CLOSED always; OPEN only once the jittered dwell has elapsed
        (that query *is* the probe); HALF_OPEN never — exactly one probe
        is in flight and its outcome decides the next state.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now >= self.retry_at
        return False

    def record_routed(self, now: float) -> None:
        """A query was actually dispatched to this replica."""
        if self.state == OPEN and now >= self.retry_at:
            self.state = HALF_OPEN
            self.probes += 1

    def observe(self, now: float, ok: bool, suspicion: float) -> None:
        """Fold one query outcome (and the current suspicion) in."""
        if self.state == CLOSED:
            if suspicion >= self.config.trip_suspicion:
                self.trip(now)
        elif self.state == HALF_OPEN:
            if ok and suspicion < self.config.clear_suspicion:
                self._close()
            else:
                self.trip(now)
        # OPEN: stragglers routed before the trip resolve here; their
        # outcomes are already priced into the suspicion score.

    def note_suspicion(self, now: float, suspicion: float) -> None:
        """Non-query evidence (broadcast gaps) — may trip, never closes."""
        if self.state == CLOSED and suspicion >= self.config.trip_suspicion:
            self.trip(now)

    def trip(self, now: float) -> None:
        """Open (or re-open), scheduling the next jittered probe."""
        self.state = OPEN
        self.trips += 1
        jitter = self.config.jitter
        scale = self._rng.uniform(1.0 - jitter, 1.0 + jitter)
        self.retry_at = now + self._open_ms * scale
        self._open_ms = min(self._open_ms * self.config.probe_backoff,
                            self.config.max_open_ms)

    def _close(self) -> None:
        self.state = CLOSED
        self.retry_at = 0.0
        self._open_ms = self.config.open_ms
