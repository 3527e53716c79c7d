"""Clock-agnostic scheduler core: one decision engine, two worlds.

The scheduling policies (FIFO, UH/QH, QUTS, ...) are pure decision
logic — "who gets the CPU now, and for how long" (the transaction
dispatched wins every lock conflict; see :mod:`repro.db.locks`).
Nothing in those decisions requires a *simulated* clock; they only need
(a) a monotonically non-decreasing ``now`` in milliseconds and (b) a
way to schedule a periodic callback (QUTS's ρ-adaptation every ω ms).

:class:`SchedulerClock` captures exactly that surface.  The DES binds a
policy to simulated time via :class:`DESClock` (bit-identical to the
pre-split behaviour: ``call_periodic`` spawns the same
``timeout``/callback process the schedulers used to spawn themselves),
and the live gateway (:mod:`repro.serve`) binds the *same instance* to
a monotonic host clock.  ``SchedulerCore`` is the half of the old
``Scheduler`` base that both worlds share; the DES-facing ``bind(env,
streams)`` entry point lives on :class:`repro.scheduling.base.Scheduler`
and simply wraps the environment in a :class:`DESClock`.
"""

from __future__ import annotations

import typing

from repro.db.transactions import Query, Transaction, Update
from repro.sim import Environment, Infinity
from repro.sim.process import ProcessGenerator
from repro.sim.rng import StreamRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.hooks import SchedulerProbe


class SchedulerClock(typing.Protocol):
    """The only clock surface scheduling decisions may touch.

    ``now`` is milliseconds on the binding world's clock (simulated
    time in the DES, monotonic time since gateway start in
    :mod:`repro.serve`).  ``call_periodic`` registers ``fn`` to be
    called every ``period_ms`` with the then-current ``now`` — the DES
    turns this into a kernel process, the gateway into an asyncio task.
    """

    @property
    def now(self) -> float:
        """Current time in milliseconds (monotonically non-decreasing)."""
        ...  # pragma: no cover - protocol

    def call_periodic(self, period_ms: float,
                      fn: typing.Callable[[float], None], *,
                      name: str) -> None:
        """Arrange for ``fn(now)`` to run every ``period_ms`` ms."""
        ...  # pragma: no cover - protocol


class DESClock:
    """Bind a :class:`SchedulerCore` to simulated time.

    ``call_periodic`` spawns the exact event pattern the schedulers
    used before the split (``while True: yield env.timeout(period);
    fn(env.now)`` under the same process name), so kernel event order —
    and therefore every downstream RNG draw — is unchanged.
    """

    __slots__ = ("_env",)

    def __init__(self, env: Environment) -> None:
        self._env = env

    @property
    def now(self) -> float:
        return self._env.now

    def call_periodic(self, period_ms: float,
                      fn: typing.Callable[[float], None], *,
                      name: str) -> None:
        env = self._env

        def _loop() -> ProcessGenerator:
            while True:
                yield env.timeout(period_ms)
                fn(env.now)

        env.process(_loop(), name=name)


class SchedulerCore:
    """Clock-agnostic scheduling policy: queues + decisions, no kernel.

    A core owns the waiting transactions and answers three questions:

    * ``next_transaction(now)`` — which transaction should get the CPU
      now?
    * ``preempts(running, arrival)`` — should this fresh arrival kick
      the running transaction off the CPU immediately?
    * ``quantum(running, now)`` — for how long may the chosen
      transaction run before the scheduler wants to make a new decision
      (``inf`` for run-to-completion policies; the remaining atom-time
      slot for QUTS)?

    The driver (DES server or live gateway) calls ``submit_query`` /
    ``submit_update`` on arrivals and ``requeue`` when a preempted or
    restarted transaction must wait again.
    ``bind_clock`` hands the core its world's clock + RNG streams
    before work starts; QUTS uses it to register its ρ-adaptation
    callback.  The same core instance can drive the simulator
    (:class:`DESClock`) and the live gateway
    (:class:`repro.serve.clock.MonotonicClock`) — only the binding
    differs.
    """

    #: Short name used in reports and figures ("FIFO", "UH", "QUTS", ...).
    name: str = "base"

    def __init__(self) -> None:
        self.clock: SchedulerClock | None = None
        #: Telemetry probe (None keeps every hook a single comparison).
        self.probe: "SchedulerProbe | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind_clock(self, clock: SchedulerClock,
                   streams: StreamRegistry) -> None:
        """Attach the world's clock + RNG streams before work starts."""
        self.clock = clock

    def attach_telemetry(self, probe: "SchedulerProbe | None") -> None:
        """Attach a telemetry probe (the driver does this at startup)."""
        self.probe = probe

    def _trace_depths(self) -> None:
        """Emit queue-depth counter samples (callers guard ``probe``).

        The gate runs first so a sampled-out snapshot skips the depth
        computation (and the ``clock.now`` property) entirely.
        """
        probe = self.probe
        if probe is not None and self.clock is not None \
                and probe.wants_depths():
            probe.record_depths(self.clock.now, self.pending_queries(),
                                self.pending_updates())

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def submit_query(self, query: Query) -> None:
        raise NotImplementedError

    def submit_update(self, update: Update) -> None:
        raise NotImplementedError

    def requeue(self, txn: Transaction) -> None:
        """Put a preempted or restarted transaction back in line."""
        if isinstance(txn, Query):
            self.submit_query(txn)
        elif isinstance(txn, Update):
            self.submit_update(txn)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown transaction type {txn!r}")

    def notify_query_finished(self, query: Query) -> None:
        """Hook: ``query`` committed or was dropped.

        The base policies ignore it; extensions that derive update
        priority from query interest (e.g.
        :mod:`repro.scheduling.inheritance`) use it to retire interest.
        """

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def next_transaction(self, now: float) -> Transaction | None:
        """Pop the transaction that should run now (None if all queues
        are empty)."""
        raise NotImplementedError

    def preempts(self, running: Transaction, arrival: Transaction) -> bool:
        """Should ``arrival`` preempt ``running`` immediately?"""
        return False

    def quantum(self, running: Transaction, now: float) -> float:
        """Maximum uninterrupted slice for ``running`` (default: no limit)."""
        return Infinity

    # ------------------------------------------------------------------
    # Introspection (used by tests and reports)
    # ------------------------------------------------------------------
    def pending_queries(self) -> int:
        raise NotImplementedError

    def pending_updates(self) -> int:
        raise NotImplementedError

    def has_work(self) -> bool:
        return self.pending_queries() > 0 or self.pending_updates() > 0
