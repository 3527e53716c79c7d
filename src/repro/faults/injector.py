"""The fault injector: replays a :class:`FaultPlan` on the sim clock.

The injector is a plain simulation process.  It walks the plan's events in
time order and, at each event's instant:

* ``crash`` / ``recover`` — calls
  :meth:`~repro.cluster.portal.ReplicatedPortal.crash_replica` /
  :meth:`~repro.cluster.portal.ReplicatedPortal.recover_replica` on the
  attached portal (plans that would double-crash a replica or recover
  one that never went down are rejected by
  :class:`~repro.faults.plan.FaultPlan` validation at construction);
* ``portal_crash`` / ``portal_recover`` — a portal-wide outage:
  :meth:`~repro.cluster.portal.ReplicatedPortal.crash_portal` takes every
  replica down at once and
  :meth:`~repro.cluster.portal.ReplicatedPortal.recover_portal` brings
  them all back (with a durability layer attached, each replica recovers
  from its last checkpoint plus the durable WAL tail);
* ``stall_updates`` / ``resume_updates`` — flips a gate the cluster
  runner's update source waits on.  While stalled, the source is parked;
  on resume every withheld update is delivered in one burst at the resume
  instant (the source replays its backlog with zero inter-arrival delay);
* ``spike_start`` / ``spike_end`` — sets the query multiplier the runner
  consults: during a spike of magnitude *m*, each trace query is submitted
  *m* times (clones share the original's contract), modelling a flash
  crowd on top of the recorded trace;
* ``slow_replica`` / ``restore_replica`` — gray failure: the target
  replica's service rate is divided by ``magnitude`` (CPU slices and
  class-switch overheads stretch) without flipping its health bit;
* ``drop_updates`` / ``delay_updates`` / ``reorder_updates`` /
  ``heal_updates`` — a lossy broadcast window on one replica: updates
  are silently withheld, delivered ``magnitude`` ms late, or shuffled;
  the heal event closes the window and re-syncs whatever was lost (see
  :meth:`~repro.cluster.portal.ReplicatedPortal.heal_updates`);
* ``corrupt_wal`` — flips the newest ``magnitude`` durable WAL records
  of the target replica without touching their checksums; the damage is
  latent until the replica next restores, whose CRC scan truncates the
  replay at the first bad record and read-repairs from a healthy peer.

With an empty plan the injector does nothing and a run with it attached is
bit-identical to a run without it (the determinism contract extends to
fault schedules).
"""

from __future__ import annotations

import typing

from repro.sim import Environment, Event
from repro.sim.process import ProcessGenerator

from .plan import (CORRUPT_WAL, CRASH, DELAY_UPDATES, DROP_UPDATES,
                   HEAL_UPDATES, PORTAL_CRASH, PORTAL_RECOVER, RECOVER,
                   REORDER_UPDATES, RESTORE_REPLICA, RESUME_UPDATES,
                   SLOW_REPLICA, SPIKE_END, SPIKE_START, STALL_UPDATES,
                   FaultEvent, FaultPlan)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.portal import ReplicatedPortal


class FaultInjector:
    """Schedules a plan's fault events against a replicated portal."""

    def __init__(self, env: Environment, plan: FaultPlan,
                 portal: "ReplicatedPortal") -> None:
        if plan.max_replica >= len(portal.replicas):
            raise ValueError(
                f"plan targets replica {plan.max_replica} but the portal "
                f"has only {len(portal.replicas)} replicas")
        self.env = env
        self.plan = plan
        self.portal = portal
        #: Events fired so far, by kind (inspection/reporting).
        self.fired: dict[str, int] = {}
        self._stall_released: Event | None = None
        self._spike_multiplier = 1.0
        if len(plan):
            env.process(self._driver(), name="fault-injector")

    def __repr__(self) -> str:
        return (f"<FaultInjector t={self.env.now:.0f} "
                f"fired={self.fired} plan={self.plan!r}>")

    # ------------------------------------------------------------------
    # State the runner's arrival sources consult
    # ------------------------------------------------------------------
    def extra_query_copies(self) -> int:
        """Clone count the runner submits on top of each trace query."""
        return max(0, round(self._spike_multiplier) - 1)

    def update_gate(self) -> ProcessGenerator:
        """Generator the update source yields from before each delivery;
        parks the source while the update stream is stalled."""
        while self._stall_released is not None:
            yield self._stall_released

    # ------------------------------------------------------------------
    # The driver process
    # ------------------------------------------------------------------
    def _driver(self) -> ProcessGenerator:
        env = self.env
        for event in self.plan:
            delay = event.at_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._fire(event)

    def _fire(self, event: FaultEvent) -> None:
        self.fired[event.kind] = self.fired.get(event.kind, 0) + 1
        if event.kind == CRASH:
            self.portal.crash_replica(event.replica)
        elif event.kind == RECOVER:
            self.portal.recover_replica(event.replica)
        elif event.kind == PORTAL_CRASH:
            self.portal.crash_portal()
        elif event.kind == PORTAL_RECOVER:
            self.portal.recover_portal()
        elif event.kind == STALL_UPDATES:
            if self._stall_released is None:
                self._stall_released = self.env.event()
        elif event.kind == RESUME_UPDATES:
            released = self._stall_released
            self._stall_released = None
            if released is not None and not released.triggered:
                released.succeed()
        elif event.kind == SPIKE_START:
            self._spike_multiplier = event.magnitude
        elif event.kind == SPIKE_END:
            self._spike_multiplier = 1.0
        elif event.kind == SLOW_REPLICA:
            self.portal.slow_replica(typing.cast(int, event.replica),
                                     event.magnitude)
        elif event.kind == RESTORE_REPLICA:
            self.portal.restore_replica(typing.cast(int, event.replica))
        elif event.kind in (DROP_UPDATES, DELAY_UPDATES, REORDER_UPDATES):
            mode = {DROP_UPDATES: "drop", DELAY_UPDATES: "delay",
                    REORDER_UPDATES: "reorder"}[event.kind]
            self.portal.open_update_window(
                typing.cast(int, event.replica), mode,
                delay_ms=event.magnitude)
        elif event.kind == HEAL_UPDATES:
            self.portal.heal_updates(typing.cast(int, event.replica))
        elif event.kind == CORRUPT_WAL:
            self.portal.corrupt_wal(typing.cast(int, event.replica),
                                    records=int(event.magnitude))
