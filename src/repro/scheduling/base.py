"""The DES-facing scheduler interface the database server drives.

The decision contract itself — queues, ``next_transaction``,
``preempts``, ``quantum`` — lives on the clock-agnostic
:class:`repro.scheduling.core.SchedulerCore`, which both the simulator
and the live gateway (:mod:`repro.serve`) drive.
:class:`Scheduler` is the DES binding: ``bind`` hands the core its
environment wrapped in a :class:`~repro.scheduling.core.DESClock`
(clock + RNG streams) before the simulation starts; QUTS uses it to
start its adaptation process.
"""

from __future__ import annotations

import typing

from repro.sim import Environment
from repro.sim.rng import StreamRegistry

from .core import DESClock, SchedulerCore


class Scheduler(SchedulerCore):
    """Base class for DES-bound policies; concrete policies override the
    queue/decision methods on :class:`SchedulerCore`."""

    def __init__(self) -> None:
        super().__init__()
        self.env: Environment | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, env: Environment, streams: StreamRegistry) -> None:
        """Attach the simulation environment before the run starts."""
        self.env = env
        self.bind_clock(DESClock(env), streams)


SchedulerFactory = typing.Callable[[], Scheduler]
