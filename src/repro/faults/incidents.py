"""Incident sampling: random-but-reproducible gray-failure schedules.

The chaos harness (:mod:`repro.experiments.chaos`) does not search the
space of raw :class:`~.plan.FaultEvent` lists — most such lists are not
even valid plans.  It searches the space of **incidents**: a
:class:`FaultIncident` is one self-contained episode (a crash and its
repair, a slowdown and its restore, a lossy window and its heal, a WAL
corruption and the crash that surfaces it) that always expands to a
well-formed event pair via :func:`expand_incidents`.  Sampling,
shrinking, and JSON repro artifacts all operate at this granularity:
dropping any subset of incidents from a schedule leaves a valid plan,
which is exactly the property delta-debugging needs.

Sampling is deterministic: every draw comes from the caller's named
:class:`~repro.sim.rng.RandomStream`, so one master seed yields one
schedule, bit-identical across runs and across the policies it is used
to compare.  Per-replica incidents never overlap (plan validation
requires exclusive conditions); non-overlap is enforced by construction,
walking each replica's timeline left to right.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.rng import RandomStream

from .plan import (CRASH, CORRUPT_WAL, DELAY_UPDATES, DROP_UPDATES,
                   HEAL_UPDATES, RECOVER, REORDER_UPDATES, RESTORE_REPLICA,
                   SLOW_REPLICA, FaultEvent, FaultPlan)

#: Incident kinds the sampler draws from (weights tuned so that the
#: cheap-to-trigger gray faults dominate over fail-stop crashes).
INCIDENT_KINDS: tuple[str, ...] = (
    CRASH, SLOW_REPLICA, DROP_UPDATES, DELAY_UPDATES, REORDER_UPDATES,
    CORRUPT_WAL,
)

_WEIGHTS: tuple[int, ...] = (2, 3, 3, 2, 2, 1)
assert len(_WEIGHTS) == len(INCIDENT_KINDS)


@dataclasses.dataclass(frozen=True)
class FaultIncident:
    """One self-contained failure episode on one replica.

    ``magnitude`` means what the expanded kind needs it to mean: the
    slowdown factor for ``slow_replica``, the delivery delay (ms) for
    ``delay_updates``, the damaged-record count for ``corrupt_wal``,
    and is ignored for the rest.
    """

    kind: str
    replica: int
    at_ms: float
    duration_ms: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(f"unknown incident kind {self.kind!r}; "
                             f"choose from {INCIDENT_KINDS}")
        if self.replica < 0:
            raise ValueError(
                f"replica must be non-negative, got {self.replica}")
        if not self.at_ms >= 0:
            raise ValueError(f"at_ms must be >= 0, got {self.at_ms}")
        if not self.duration_ms > 0:
            raise ValueError(
                f"duration_ms must be positive, got {self.duration_ms}")

    @property
    def end_ms(self) -> float:
        return self.at_ms + self.duration_ms

    def events(self) -> list[FaultEvent]:
        """The well-formed event pair (or triple) this incident is."""
        if self.kind == CRASH:
            return [FaultEvent(self.at_ms, CRASH, replica=self.replica),
                    FaultEvent(self.end_ms, RECOVER, replica=self.replica)]
        if self.kind == SLOW_REPLICA:
            return [FaultEvent(self.at_ms, SLOW_REPLICA,
                               replica=self.replica,
                               magnitude=max(1.5, self.magnitude)),
                    FaultEvent(self.end_ms, RESTORE_REPLICA,
                               replica=self.replica)]
        if self.kind in (DROP_UPDATES, DELAY_UPDATES, REORDER_UPDATES):
            magnitude = (max(1.0, self.magnitude)
                         if self.kind == DELAY_UPDATES else 1.0)
            return [FaultEvent(self.at_ms, self.kind, replica=self.replica,
                               magnitude=magnitude),
                    FaultEvent(self.end_ms, HEAL_UPDATES,
                               replica=self.replica)]
        # corrupt_wal: flip bytes, then crash so the damage surfaces at
        # the recovery CRC scan (the latent fault alone changes nothing).
        return [FaultEvent(self.at_ms, CORRUPT_WAL, replica=self.replica,
                           magnitude=max(1.0, self.magnitude)),
                FaultEvent(self.at_ms, CRASH, replica=self.replica),
                FaultEvent(self.end_ms, RECOVER, replica=self.replica)]

    def as_dict(self) -> dict[str, typing.Any]:
        return {"kind": self.kind, "replica": self.replica,
                "at_ms": self.at_ms, "duration_ms": self.duration_ms,
                "magnitude": self.magnitude}

    @classmethod
    def from_dict(cls, row: typing.Mapping[str, typing.Any],
                  ) -> "FaultIncident":
        return cls(kind=row["kind"], replica=row["replica"],
                   at_ms=row["at_ms"], duration_ms=row["duration_ms"],
                   magnitude=row.get("magnitude", 1.0))


def expand_incidents(incidents: typing.Iterable[FaultIncident],
                     ) -> FaultPlan:
    """The :class:`FaultPlan` equivalent of an incident list.

    Any subset of a sampled incident list expands to a *valid* plan
    (per-replica non-overlap is preserved by subsetting), which is what
    lets the shrinker delete incidents freely.
    """
    events: list[FaultEvent] = []
    for incident in incidents:
        events.extend(incident.events())
    return FaultPlan(events)


def sample_incidents(rng: RandomStream, n_replicas: int,
                     horizon_ms: float,
                     mean_incidents: float = 3.0,
                     min_duration_ms: float = 200.0,
                     ) -> list[FaultIncident]:
    """Draw a random, valid-by-construction incident schedule.

    Each replica's timeline is walked left to right: an exponential gap,
    then an incident whose duration is clipped so the episode closes
    before the horizon (the run must observe the heal/recover — open
    episodes at the horizon are a different experiment).  Incidents on
    the same replica therefore never overlap.  All draws come from
    ``rng`` in replica order: same stream, same schedule.
    """
    if n_replicas <= 0:
        raise ValueError(f"n_replicas must be positive, got {n_replicas}")
    if horizon_ms <= 0:
        raise ValueError(f"horizon_ms must be positive, got {horizon_ms}")
    if mean_incidents <= 0:
        raise ValueError(
            f"mean_incidents must be positive, got {mean_incidents}")
    mean_gap = horizon_ms / (mean_incidents + 1.0)
    incidents: list[FaultIncident] = []
    for replica in range(n_replicas):
        t = rng.exponential(mean_gap)
        while t < horizon_ms * 0.9:
            kind = rng.choices(INCIDENT_KINDS, weights=_WEIGHTS, k=1)[0]
            duration = min(max(min_duration_ms,
                               rng.exponential(horizon_ms * 0.15)),
                           horizon_ms - t - 1.0)
            if duration < min_duration_ms:
                break  # too close to the horizon to close the episode
            if kind == SLOW_REPLICA:
                magnitude = rng.uniform(2.0, 8.0)
            elif kind == DELAY_UPDATES:
                magnitude = rng.uniform(100.0, 1_000.0)
            elif kind == CORRUPT_WAL:
                magnitude = float(rng.randint(1, 4))
            else:
                magnitude = 1.0
            incidents.append(FaultIncident(kind, replica, t, duration,
                                           magnitude))
            t += duration + rng.exponential(mean_gap)
    incidents.sort(key=lambda i: (i.at_ms, i.replica, i.kind))
    return incidents
