"""A from-scratch discrete-event simulation kernel (simpy-like).

The kernel provides:

* :class:`Environment` — the clock and event loop;
* :class:`Event`, :class:`Timeout` — synchronisation;
* :class:`Process` / :class:`Interrupt` — generator-based coroutines;
* :class:`StreamRegistry` — named deterministic random streams;
* monitors — tallies, time series, time-weighted averages.

Time is a float interpreted as **milliseconds** throughout this library.
"""

from .environment import Environment, Infinity
from .errors import (EventLifecycleError, Interrupt, ProcessError,
                     SchedulingError, SimulationError)
from .events import Event, Timeout
from .invariants import InvariantMonitor, InvariantViolation
from .monitor import Counter, CounterSet, Tally, TimeSeries, TimeWeighted
from .process import Process
from .rng import RandomStream, StreamRegistry

__all__ = [
    "Counter",
    "CounterSet",
    "Environment",
    "Event",
    "EventLifecycleError",
    "Infinity",
    "Interrupt",
    "InvariantMonitor",
    "InvariantViolation",
    "Process",
    "ProcessError",
    "RandomStream",
    "SchedulingError",
    "SimulationError",
    "StreamRegistry",
    "Tally",
    "TimeSeries",
    "TimeWeighted",
    "Timeout",
]
