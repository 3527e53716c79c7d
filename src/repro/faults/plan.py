"""Fault plans: deterministic schedules of failure events.

A :class:`FaultPlan` is an immutable, time-ordered list of
:class:`FaultEvent` records describing *what goes wrong and when* during a
simulation run: replica crashes and recoveries, stalls and bursts of the
external update source, and query load spikes.

Plans are either **scripted** (explicit event lists, the reproducible unit
tests use these) or **sampled** from failure models — exponential
MTTF/MTTR crash/repair cycles — using the library's named
:class:`~repro.sim.rng.RandomStream` machinery, so that a plan derived
from a master seed is bit-identical across runs and across the policies it
is used to compare.  Sampling happens *eagerly*: the returned plan is a
plain scripted event list, which keeps the injector trivial and the
schedule inspectable.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.sim.rng import RandomStream

#: Event kinds understood by the injector — fail-stop set.
CRASH = "crash"
RECOVER = "recover"
PORTAL_CRASH = "portal_crash"
PORTAL_RECOVER = "portal_recover"
STALL_UPDATES = "stall_updates"
RESUME_UPDATES = "resume_updates"
SPIKE_START = "spike_start"
SPIKE_END = "spike_end"

#: Gray-failure kinds: the replica stays up but degrades.
SLOW_REPLICA = "slow_replica"        #: service-rate multiplier on
RESTORE_REPLICA = "restore_replica"  #: ... and back off
DROP_UPDATES = "drop_updates"        #: broadcast link silently drops
DELAY_UPDATES = "delay_updates"      #: broadcast link delivers late
REORDER_UPDATES = "reorder_updates"  #: broadcast link shuffles
HEAL_UPDATES = "heal_updates"        #: close any lossy window (re-sync)
CORRUPT_WAL = "corrupt_wal"          #: flip bytes in durable WAL records

KINDS = frozenset({CRASH, RECOVER, PORTAL_CRASH, PORTAL_RECOVER,
                   STALL_UPDATES, RESUME_UPDATES, SPIKE_START, SPIKE_END,
                   SLOW_REPLICA, RESTORE_REPLICA, DROP_UPDATES,
                   DELAY_UPDATES, REORDER_UPDATES, HEAL_UPDATES,
                   CORRUPT_WAL})

#: Kinds that name a target replica.
REPLICA_KINDS = frozenset({CRASH, RECOVER, SLOW_REPLICA, RESTORE_REPLICA,
                           DROP_UPDATES, DELAY_UPDATES, REORDER_UPDATES,
                           HEAL_UPDATES, CORRUPT_WAL})

#: Kinds that open a lossy per-replica broadcast window.
WINDOW_KINDS = frozenset({DROP_UPDATES, DELAY_UPDATES, REORDER_UPDATES})


@dataclasses.dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault: ``kind`` fires at ``at_ms`` on the sim clock.

    ``replica`` is the target replica index for crash/recover events (and
    must be ``None`` for the others).  ``magnitude`` is the query-rate
    multiplier for ``spike_start`` events (ignored elsewhere).
    """

    at_ms: float
    kind: str
    replica: int | None = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {sorted(KINDS)}")
        if not self.at_ms >= 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_ms}")
        if self.kind in REPLICA_KINDS:
            if self.replica is None or self.replica < 0:
                raise ValueError(
                    f"{self.kind!r} needs a non-negative replica index, "
                    f"got {self.replica!r}")
        elif self.replica is not None:
            raise ValueError(f"{self.kind!r} does not target a replica")
        if self.kind == SPIKE_START and not self.magnitude >= 1.0:
            raise ValueError(
                f"spike magnitude must be >= 1, got {self.magnitude}")
        if self.kind == SLOW_REPLICA and not self.magnitude > 1.0:
            raise ValueError(
                f"slowdown factor must be > 1, got {self.magnitude}")
        if self.kind == DELAY_UPDATES and not self.magnitude > 0.0:
            raise ValueError(
                f"delay_updates needs a positive delay (ms) in "
                f"magnitude, got {self.magnitude}")
        if self.kind == CORRUPT_WAL and not 1.0 <= self.magnitude < math.inf:
            raise ValueError(
                f"corrupt_wal needs a finite record count >= 1 in "
                f"magnitude, got {self.magnitude}")

    def as_dict(self) -> dict[str, typing.Any]:
        """JSON-ready row (chaos repro artifacts round-trip through it)."""
        return {"at_ms": self.at_ms, "kind": self.kind,
                "replica": self.replica, "magnitude": self.magnitude}


class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent` records."""

    def __init__(self, events: typing.Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_ms, e.kind)))
        self._validate()

    #: What a replica-targeted kind does to the replica's condition:
    #: ``(required_condition, resulting_condition)``.  A replica is in at
    #: most one abnormal condition at a time — crash, slowdown, and lossy
    #: windows are mutually exclusive per replica (one incident at a
    #: time), which is also what the sampler in
    #: :mod:`repro.faults.incidents` guarantees by construction.
    _TRANSITIONS: typing.ClassVar[dict[str, tuple[object, str | None]]] = {
        CRASH: (None, "down"),
        RECOVER: ("down", None),
        SLOW_REPLICA: (None, "slow"),
        RESTORE_REPLICA: ("slow", None),
        DROP_UPDATES: (None, "drop"),
        DELAY_UPDATES: (None, "delay"),
        REORDER_UPDATES: (None, "reorder"),
    }

    def _validate(self) -> None:
        """Reject schedules that cannot describe a real fault history.

        Walking the time-sorted events with a per-replica *condition*
        (``None`` healthy, else one of ``down`` / ``slow`` / ``drop`` /
        ``delay`` / ``reorder``): crashing an already-down replica,
        healing a window that is not open, restoring a replica that is
        not slowed, double portal crashes, and portal recoveries without
        a preceding portal crash are all plan bugs — injecting them
        would silently no-op (the portal's lifecycle hooks are
        idempotent) and make the plan lie about the history it encodes.
        Conditions are mutually exclusive per replica: a plan wanting a
        slow *and* lossy replica expresses that with back-to-back
        incidents, not overlapping ones.  Replica events inside a
        portal-wide outage are rejected (the portal crash owns every
        replica's state and implicitly aborts open windows/slowdowns);
        ``corrupt_wal`` is exempt — flipping bytes in the durable log is
        legal at any time, including while its replica is down, and only
        surfaces at the next recovery's CRC scan.
        """
        condition: dict[int, str | None] = {}
        portal_down = False
        for event in self.events:
            if event.kind in REPLICA_KINDS:
                replica = typing.cast(int, event.replica)
                if event.kind == CORRUPT_WAL:
                    continue  # latent: no condition change, legal anywhere
                if portal_down:
                    raise ValueError(
                        f"invalid fault plan: {event.kind!r} on replica "
                        f"{replica} at t={event.at_ms:g} falls inside a "
                        f"portal-wide outage (the portal crash owns every "
                        f"replica's state)")
                if event.kind == HEAL_UPDATES:
                    current = condition.get(replica)
                    if current not in ("drop", "delay", "reorder"):
                        raise ValueError(
                            f"invalid fault plan: heal_updates on replica "
                            f"{replica} at t={event.at_ms:g} but no lossy "
                            f"window is open (condition: {current!r})")
                    condition[replica] = None
                    continue
                required, resulting = self._TRANSITIONS[event.kind]
                current = condition.get(replica)
                if current != required:
                    raise ValueError(
                        f"invalid fault plan: {event.kind!r} on replica "
                        f"{replica} at t={event.at_ms:g} requires "
                        f"condition {required!r} but the replica is in "
                        f"{current!r} (conditions are exclusive — close "
                        f"the open incident first)")
                condition[replica] = resulting
            elif event.kind == PORTAL_CRASH:
                if portal_down:
                    raise ValueError(
                        f"invalid fault plan: portal crashed again at "
                        f"t={event.at_ms:g} while still down")
                portal_down = True
            elif event.kind == PORTAL_RECOVER:
                if not portal_down:
                    raise ValueError(
                        f"invalid fault plan: portal recovery at "
                        f"t={event.at_ms:g} without a prior portal crash")
                portal_down = False
                # Portal recovery brings every replica back healthy; the
                # crash already aborted open windows and slowdowns.
                condition.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> typing.Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:
        kinds = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return f"<FaultPlan {len(self)} events {kinds}>"

    @property
    def max_replica(self) -> int:
        """Highest replica index any event targets (-1 if none do)."""
        targets = [e.replica for e in self.events if e.replica is not None]
        return max(targets) if targets else -1

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan combining both schedules."""
        return FaultPlan((*self.events, *other.events))

    def as_dicts(self) -> list[dict[str, typing.Any]]:
        """JSON-ready rows, time-sorted (repro artifacts embed these)."""
        return [event.as_dict() for event in self.events]

    @classmethod
    def from_dicts(cls, rows: typing.Iterable[typing.Mapping[str, typing.Any]],
                   ) -> "FaultPlan":
        """Inverse of :meth:`as_dicts` (revalidates the schedule)."""
        return cls(FaultEvent(at_ms=row["at_ms"], kind=row["kind"],
                              replica=row.get("replica"),
                              magnitude=row.get("magnitude", 1.0))
                   for row in rows)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: injecting it must not change any result."""
        return cls()

    @classmethod
    def scripted(cls, events: typing.Iterable[FaultEvent]) -> "FaultPlan":
        return cls(events)

    @classmethod
    def replica_crash(cls, replica: int, at_ms: float,
                      down_ms: float) -> "FaultPlan":
        """One crash of ``replica`` at ``at_ms``, repaired ``down_ms``
        later."""
        if down_ms <= 0:
            raise ValueError(f"down_ms must be positive, got {down_ms}")
        return cls([FaultEvent(at_ms, CRASH, replica=replica),
                    FaultEvent(at_ms + down_ms, RECOVER, replica=replica)])

    @classmethod
    def portal_crash(cls, at_ms: float, down_ms: float) -> "FaultPlan":
        """The whole portal fails at ``at_ms`` and returns ``down_ms``
        later — every replica crashes and recovers together."""
        if down_ms <= 0:
            raise ValueError(f"down_ms must be positive, got {down_ms}")
        return cls([FaultEvent(at_ms, PORTAL_CRASH),
                    FaultEvent(at_ms + down_ms, PORTAL_RECOVER)])

    @classmethod
    def update_stall(cls, at_ms: float, duration_ms: float) -> "FaultPlan":
        """The update source stalls at ``at_ms`` and bursts back after
        ``duration_ms`` (all withheld updates arrive at once)."""
        if duration_ms <= 0:
            raise ValueError(
                f"duration_ms must be positive, got {duration_ms}")
        return cls([FaultEvent(at_ms, STALL_UPDATES),
                    FaultEvent(at_ms + duration_ms, RESUME_UPDATES)])

    @classmethod
    def load_spike(cls, at_ms: float, duration_ms: float,
                   magnitude: float = 2.0) -> "FaultPlan":
        """Multiply the query arrival rate by ``magnitude`` for a window."""
        if duration_ms <= 0:
            raise ValueError(
                f"duration_ms must be positive, got {duration_ms}")
        return cls([FaultEvent(at_ms, SPIKE_START, magnitude=magnitude),
                    FaultEvent(at_ms + duration_ms, SPIKE_END)])

    @classmethod
    def slowdown(cls, replica: int, at_ms: float, duration_ms: float,
                 factor: float = 4.0) -> "FaultPlan":
        """Replica ``replica`` serves ``factor``x slower for a window."""
        if duration_ms <= 0:
            raise ValueError(
                f"duration_ms must be positive, got {duration_ms}")
        return cls([FaultEvent(at_ms, SLOW_REPLICA, replica=replica,
                               magnitude=factor),
                    FaultEvent(at_ms + duration_ms, RESTORE_REPLICA,
                               replica=replica)])

    @classmethod
    def update_loss(cls, replica: int, at_ms: float, duration_ms: float,
                    mode: str = DROP_UPDATES,
                    delay_ms: float = 500.0) -> "FaultPlan":
        """A lossy broadcast window on ``replica``: updates are dropped,
        delayed by ``delay_ms``, or reordered until the healing event
        ``duration_ms`` later (which re-syncs whatever the mode lost)."""
        if duration_ms <= 0:
            raise ValueError(
                f"duration_ms must be positive, got {duration_ms}")
        if mode not in WINDOW_KINDS:
            raise ValueError(f"mode must be one of "
                             f"{sorted(WINDOW_KINDS)}, got {mode!r}")
        magnitude = delay_ms if mode == DELAY_UPDATES else 1.0
        return cls([FaultEvent(at_ms, mode, replica=replica,
                               magnitude=magnitude),
                    FaultEvent(at_ms + duration_ms, HEAL_UPDATES,
                               replica=replica)])

    @classmethod
    def wal_corruption(cls, replica: int, at_ms: float, down_ms: float,
                       records: int = 1) -> "FaultPlan":
        """Corrupt the newest ``records`` durable WAL records of
        ``replica`` at ``at_ms``, then crash it so the corruption
        surfaces at recovery (CRC scan → truncated replay + re-sync)."""
        if records < 1:
            raise ValueError(f"records must be >= 1, got {records}")
        if down_ms <= 0:
            raise ValueError(f"down_ms must be positive, got {down_ms}")
        return cls([FaultEvent(at_ms, CORRUPT_WAL, replica=replica,
                               magnitude=float(records)),
                    FaultEvent(at_ms, CRASH, replica=replica),
                    FaultEvent(at_ms + down_ms, RECOVER, replica=replica)])

    @classmethod
    def sample_mtbf(cls, rng: RandomStream, n_replicas: int,
                    mttf_ms: float, mttr_ms: float,
                    horizon_ms: float) -> "FaultPlan":
        """Exponential crash/repair cycles for every replica.

        Each replica independently alternates UP (exponential with mean
        ``mttf_ms``) and DOWN (exponential with mean ``mttr_ms``) periods
        until ``horizon_ms``.  Draws come from ``rng`` in replica order, so
        the same stream produces the same plan — hand every policy under
        comparison a plan sampled from an identically-seeded stream.
        """
        if n_replicas <= 0:
            raise ValueError(f"n_replicas must be positive, got "
                             f"{n_replicas}")
        if horizon_ms <= 0:
            raise ValueError(f"horizon_ms must be positive, got "
                             f"{horizon_ms}")
        events: list[FaultEvent] = []
        for replica in range(n_replicas):
            t = rng.exponential(mttf_ms)
            while t < horizon_ms:
                events.append(FaultEvent(t, CRASH, replica=replica))
                t += rng.exponential(mttr_ms)
                if t >= horizon_ms:
                    break
                events.append(FaultEvent(t, RECOVER, replica=replica))
                t += rng.exponential(mttf_ms)
        return cls(events)
