"""QUTS: Query-Update Time-Sharing, the paper's two-level scheduler (§4).

**High level** — the CPU is time-shared between the query queue and the
update queue in *atom time* slots of length ``τ``.  At each slot boundary
(or whenever the chosen queue is empty) a fresh slot owner is drawn:
queries with probability ``ρ``, updates with probability ``1-ρ``.

``ρ`` is re-optimised every *adaptation period* ``ω`` from the profit mass
submitted during the previous period, using the closed form of Eq. 4:

    ρ_new = min( QOSmax / (2·QODmax) + 0.5 , 1 )

(the maximiser of ``Q ≈ QOSmax·ρ + QODmax·ρ·(1-ρ)``), smoothed with an
aging factor ``α`` (Eq. 6):

    ρ_k = (1-α)·ρ_{k-1} + α·ρ_new

Note ``ρ ≥ 0.5`` always — the model says queries should hold priority at
least half the time, since QoD profit also requires queries to finish.

**Low level** — each queue orders itself independently; the paper's
configuration is VRD for queries and FIFO for updates, both pluggable here.

The scheduler also induces the 2PL-HP priority: the class owning the current
slot wins lock conflicts.
"""

from __future__ import annotations

from repro.db.transactions import Query, Transaction, Update
from repro.sim import TimeSeries
from repro.sim.rng import RandomStream, StreamRegistry

from .base import Scheduler
from .core import SchedulerClock
from .priorities import FCFSPriority, PriorityPolicy, VRDPriority
from .queues import TransactionQueue

#: Default atom time (ms) — Table 3.
DEFAULT_TAU_MS = 10.0
#: Default adaptation period (ms) — Table 3.
DEFAULT_OMEGA_MS = 1000.0
#: Default aging factor — §4.1 says "α should be a small value, but the
#: exact α does not matter much".
DEFAULT_ALPHA = 0.3


def optimal_rho(qos_max: float, qod_max: float) -> float:
    """Eq. 4: the ρ maximising ``QOSmax·ρ + QODmax·ρ·(1-ρ)``.

    ``QODmax = 0`` degenerates to "all CPU to queries" (ρ = 1).
    """
    if qos_max < 0 or qod_max < 0:
        raise ValueError("profit maxima must be non-negative")
    if qod_max <= 0:
        return 1.0
    return min(qos_max / (2.0 * qod_max) + 0.5, 1.0)


class QUTSScheduler(Scheduler):
    """The Query-Update Time-Sharing two-level scheduler."""

    name = "QUTS"

    def __init__(self,
                 tau: float = DEFAULT_TAU_MS,
                 omega: float = DEFAULT_OMEGA_MS,
                 alpha: float = DEFAULT_ALPHA,
                 initial_rho: float = 0.5,
                 fixed_rho: float | None = None,
                 query_policy: PriorityPolicy | None = None,
                 update_policy: PriorityPolicy | None = None) -> None:
        super().__init__()
        if not tau > 0:
            raise ValueError(f"atom time tau must be positive, got {tau}")
        if not omega > 0:
            raise ValueError(f"adaptation period omega must be positive, "
                             f"got {omega}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"aging factor alpha must be in (0, 1], "
                             f"got {alpha}")
        if not 0.0 <= initial_rho <= 1.0:
            raise ValueError(f"initial_rho must be in [0, 1], "
                             f"got {initial_rho}")
        self.tau = tau
        self.omega = omega
        self.alpha = alpha
        self.rho = initial_rho if fixed_rho is None else fixed_rho
        #: Ablation switch: freeze ρ (disables adaptation entirely).
        self.fixed_rho = fixed_rho

        self._queries = TransactionQueue(
            query_policy if query_policy is not None else VRDPriority(),
            name="queries")
        self._updates = TransactionQueue(
            update_policy if update_policy is not None else FCFSPriority(),
            name="updates")

        # Current atom-time slot.
        self._state: str = "query"
        self._state_until: float = 0.0

        # Profit mass submitted during the current adaptation period.
        self._period_qos_max = 0.0
        self._period_qod_max = 0.0

        #: ρ after each adaptation (Figure 9d).
        self.rho_series = TimeSeries("rho")
        #: Chronicle of (time, state) slot draws, for tests/inspection.
        self.state_changes = 0

        self._rng: RandomStream | None = None

    def __repr__(self) -> str:
        return (f"<QUTS rho={self.rho:.3f} tau={self.tau} "
                f"omega={self.omega} state={self._state}>")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind_clock(self, clock: SchedulerClock,
                   streams: StreamRegistry) -> None:
        super().bind_clock(clock, streams)
        self._rng = streams.stream("quts.xi")
        self._state_until = clock.now
        if self.fixed_rho is None:
            # Recompute ρ at the start of each adaptation period ω (§4.1).
            clock.call_periodic(self.omega, self._adapt,
                                name="quts-adaptation")

    def _adapt(self, now: float) -> None:
        qos_max = self._period_qos_max
        qod_max = self._period_qod_max
        self._period_qos_max = 0.0
        self._period_qod_max = 0.0
        if qos_max <= 0.0 and qod_max <= 0.0:
            # Nothing submitted last period: keep ρ (no information).
            self.rho_series.record(now, self.rho)
            if self.probe is not None:
                self.probe.rho_update(now, self.rho, qos_max, qod_max)
            return
        rho_new = optimal_rho(qos_max, qod_max)
        self.rho = (1.0 - self.alpha) * self.rho + self.alpha * rho_new
        self.rho_series.record(now, self.rho)
        if self.probe is not None:
            self.probe.rho_update(now, self.rho, qos_max, qod_max)

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> None:
        # New arrival: account its contract toward this period's ρ input.
        self._period_qos_max += query.qc.qos_max
        self._period_qod_max += query.qc.qod_max
        self._queries.push(query)
        if self.probe is not None:
            self._trace_depths()

    def submit_update(self, update: Update) -> None:
        self._updates.push(update)
        if self.probe is not None:
            self._trace_depths()

    def requeue(self, txn: Transaction) -> None:
        """Preempted/restarted work re-enters its queue *without* being
        re-counted toward the adaptation accumulators."""
        if isinstance(txn, Query):
            self._queries.push(txn)
        else:
            self._updates.push(txn)
        if self.probe is not None:
            self._trace_depths()

    # ------------------------------------------------------------------
    # High-level decision: who owns the CPU now?
    # ------------------------------------------------------------------
    def next_transaction(self, now: float) -> Transaction | None:
        if now >= self._state_until:
            self._draw_state(now)

        chosen, other = ((self._queries, self._updates)
                         if self._state == "query"
                         else (self._updates, self._queries))
        txn = chosen.pop()
        if txn is not None:
            if self.probe is not None:
                self._trace_depths()
            return txn

        # "A state change may happen ... if the picked queue is empty at any
        # instant of time" — flip to the other class with a fresh slot.
        txn = other.pop()
        if txn is not None:
            self._switch_state("update" if self._state == "query"
                               else "query", now)
            if self.probe is not None:
                self._trace_depths()
        return txn

    def _draw_state(self, now: float) -> None:
        assert self._rng is not None, "bind() must be called before running"
        xi = self._rng.random()
        state = "query" if xi < self.rho else "update"
        if self.probe is not None:
            self.probe.quantum_draw(now, xi, state)
        self._switch_state(state, now)

    def _switch_state(self, state: str, now: float) -> None:
        if state != self._state:
            self.state_changes += 1
            if self.probe is not None:
                self.probe.queue_switch(now, state)
        self._state = state
        self._state_until = now + self.tau

    def quantum(self, running: Transaction, now: float) -> float:
        """Run at most to the end of the current atom-time slot.

        The slot can expire while ``running`` is being switched in (the
        server charges class-switch overhead between ``next_transaction``
        and the first slice).  Granting a fresh ``tau`` without re-drawing
        the slot owner would let the running class overrun its time share,
        so an expired slot re-draws the owner first: if the new slot still
        belongs to ``running``'s class it gets the full slot, otherwise it
        gets a zero quantum and yields the CPU back to the scheduler (the
        cooperative equivalent of the τ-boundary switch).
        """
        remaining_slot = self._state_until - now
        if remaining_slot <= 0:
            self._draw_state(now)
            owner = "query" if running.is_query else "update"
            if self._state != owner:
                return 0.0
            remaining_slot = self._state_until - now
        return remaining_slot

    def preempts(self, running: Transaction, arrival: Transaction) -> bool:
        """QUTS never preempts mid-slot; switches happen at τ boundaries
        (or on queue-empty, which the executor handles naturally)."""
        return False

    # ------------------------------------------------------------------
    def pending_queries(self) -> int:
        return len(self._queries)

    def pending_updates(self) -> int:
        return len(self._updates)

    @property
    def current_state(self) -> str:
        return self._state
