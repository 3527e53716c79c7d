"""Event primitives for the discrete-event simulation kernel.

Events follow the classic simpy-style lifecycle:

* *untriggered* — freshly created, not yet scheduled;
* *triggered*  — given a value (or an exception) and placed on the event
  queue, but callbacks have not run yet;
* *processed*  — popped from the queue, all callbacks executed.

An :class:`Event` may succeed with a value or fail with an exception.
Failures propagate into every process waiting on the event, so errors inside
simulated components never pass silently.
"""

from __future__ import annotations

import typing

from .errors import EventLifecycleError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment

Callback = typing.Callable[["Event"], None]

#: Sentinel for "this event has not been given a value yet".
PENDING = object()


class Event:
    """A happening at a point in simulated time, awaited by processes.

    Events are the only synchronisation primitive in the kernel; timeouts
    and process termination are subclasses.

    Events are created in the millions per run, so the whole hierarchy is
    ``__slots__``-based: no per-instance dict, cheaper construction, and
    faster attribute access on the event-loop hot path.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callback] | None = []
        self._value: object = PENDING
        self._ok: bool | None = None
        #: Set when a failure was handed to at least one waiter (or
        #: explicitly ignored); unhandled failures abort the simulation.
        self._defused = False

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event queue."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise EventLifecycleError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or failure exception).  Only valid once set."""
        if self._value is PENDING:
            raise EventLifecycleError(f"{self!r} has no value yet")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._value is PENDING:
            # An untriggered source has no outcome to copy; silently
            # treating its ``_ok is None`` as a failure would "fail"
            # this event with the PENDING sentinel as its exception.
            raise EventLifecycleError(
                f"cannot trigger {self!r} from {event!r}, which has not "
                f"been triggered itself")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(typing.cast(BaseException, event._value))

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Timeouts are triggered immediately at construction; the delay is encoded
    in their position on the event queue.  The constructor assigns the event
    fields directly (rather than via ``Event.__init__``) because timeouts
    dominate event creation on the simulator's hot path.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


def event_kind(event: Event) -> str:
    """Short lowercase kind tag for telemetry ("timeout", "process", ...).

    Derived from the class name so the kernel's event observer needs no
    import of every Event subclass (``Process`` lives in
    :mod:`repro.sim.process`, which imports this module).
    """
    return type(event).__name__.lower()
