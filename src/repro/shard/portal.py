"""The sharded portal: N replicated portals behind a consistent-hash ring.

``ShardedPortal`` is the scale-out layer the ROADMAP's top open item
asks for: instead of every portal paying the full 4,608-stock update
stream (replication), the keyspace is **partitioned** across shards —
each shard a full :class:`~repro.cluster.portal.ReplicatedPortal`, so
sharding composes with replication, failover, WAL recovery, and the
gray-failure health machinery unchanged.  The pieces:

* **routing** — the :class:`~repro.shard.ring.HashRing` fixes key
  ownership; queries go through the
  :class:`~repro.shard.planner.ShardPlanner` (owner routing +
  scatter-gather fan-out), updates go to their owner's portal only —
  this is what makes update work actually partition.  Placement is
  *data*: the portal holds the ring's owner table over its key universe
  (hashed once per ring, :meth:`~repro.shard.ring.HashRing.owner_table`)
  and every lookup indexes it; a cut-over swaps ring and table together;
* **staleness-aware replica choice** — each shard's portal routes among
  its replicas with a
  :class:`~repro.shard.router.StalenessAwareRouter` fed by the update
  stream's per-key rate EWMA;
* **rebalancing** — a deterministic controller samples per-shard load
  every ``interval_ms``; when the hottest shard carries more than
  ``skew_threshold`` times the mean it sheds ring weight, and the moved
  arcs migrate with a drain → copy → cutover protocol built on the
  existing snapshot primitives.  Updates for in-flight keys are frozen
  into a buffer and replayed at cutover; the
  :class:`~repro.sim.invariants.InvariantMonitor`'s ``shard_cutover``
  law asserts buffered == replayed (no update lost or double-applied
  across a migration).

Everything is deterministic: ring positions are seed-derived, the
controller draws no randomness, per-shard portals get *spawned* stream
registries (independent, reproducible seed universes), and migration
steps run in fixed shard order.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.portal import ReplicatedPortal
from repro.cluster.routers import Router
from repro.db.admission import AdmissionPolicy
from repro.db.server import ServerConfig
from repro.db.transactions import Query
from repro.db.wal import DurabilityConfig
from repro.metrics.profit import ProfitRollup
from repro.scheduling.base import Scheduler
from repro.sim.environment import Environment
from repro.sim.invariants import InvariantMonitor
from repro.sim.monitor import CounterSet
from repro.sim.process import ProcessGenerator
from repro.sim.rng import StreamRegistry
from repro.telemetry.hooks import TelemetryKnob, TelemetrySession

from .planner import ShardPlanner
from .ring import HashRing, moved_between
from .router import StalenessAwareRouter

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.health import HealthConfig


@dataclasses.dataclass(frozen=True)
class RebalanceConfig:
    """Knobs for the hot-key rebalancing controller (plain, picklable)."""

    #: How often the controller samples the per-shard load window.
    interval_ms: float = 5_000.0
    #: Hottest-shard load must exceed ``skew_threshold x mean`` to act.
    skew_threshold: float = 1.5
    #: Drain poll cadence while waiting for in-flight updates.
    drain_poll_ms: float = 10.0
    #: Give up draining after this long; still-pending update values are
    #: salvaged into the replay buffer so they reach the destination.
    drain_timeout_ms: float = 2_000.0
    #: A shard never sheds weight below this floor.
    min_weight: int = 1

    def __post_init__(self) -> None:
        if not (self.interval_ms > 0 and self.drain_poll_ms > 0):
            raise ValueError("intervals must be positive")
        if not self.skew_threshold >= 1.0:
            raise ValueError(
                f"skew_threshold must be >= 1, got {self.skew_threshold}")
        if not self.drain_timeout_ms >= 0 or self.min_weight < 1:
            raise ValueError("invalid drain_timeout_ms / min_weight")


class _MigrationGroup:
    """One (source, dest) key batch inside a migration step."""

    __slots__ = ("source", "dest", "keys", "buffer", "buffered")

    def __init__(self, source: int, dest: int) -> None:
        self.source = source
        self.dest = dest
        self.keys: list[str] = []
        #: Frozen updates: (buffered_at, exec_ms, item, value).
        self.buffer: list[tuple[float, float, str, float]] = []
        self.buffered = 0


class ShardedPortal:
    """The 4,608-stock keyspace partitioned across ``n_shards`` portals."""

    def __init__(self, env: Environment, n_shards: int,
                 scheduler_factory: typing.Callable[[], Scheduler],
                 streams: StreamRegistry,
                 keys: typing.Sequence[str],
                 *,
                 replicas_per_shard: int = 1,
                 router_factory: typing.Callable[[], Router] | None = None,
                 server_config: ServerConfig | None = None,
                 failover_retries: int = 6,
                 failover_backoff_ms: float = 50.0,
                 durability: DurabilityConfig | None = None,
                 monitor: InvariantMonitor | None = None,
                 telemetry: TelemetryKnob = None,
                 health: "HealthConfig | None" = None,
                 admission_factory: typing.Callable[
                     [], AdmissionPolicy] | None = None,
                 base_weight: int = 4,
                 rebalance: RebalanceConfig | None = None) -> None:
        if n_shards <= 0:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if base_weight < 1:
            raise ValueError(f"base_weight must be >= 1, got {base_weight}")
        self.env = env
        self.monitor = monitor
        #: The key universe, sorted for deterministic migration order.
        self.keys: tuple[str, ...] = tuple(sorted(keys))
        #: Ring seed derived from the master seed through the registry,
        #: so placement is part of the run's reproducible seed universe.
        ring_seed = streams.stream("shard.ring").initial_seed
        self.ring = HashRing(
            n_shards, ring_seed,
            weights={s: base_weight for s in range(n_shards)})
        #: The live placement: ``self.ring``'s owner of every key in the
        #: universe.  Changes only at cut-over, in the same no-yield
        #: block as ``self.ring`` (by applying the migration's ``moved``
        #: work-list — never by hashing again).
        self._owners = self.ring.owner_table(self.keys)
        self.rebalance = rebalance
        self.telemetry = TelemetrySession.from_knob(telemetry)
        self._probe = (self.telemetry.shard_probe("shard")
                       if self.telemetry is not None else None)
        self.planner = ShardPlanner(env, monitor=monitor,
                                    probe=self._probe)
        #: Per-shard replica routers (shared freshness metric consumers);
        #: update arrivals feed their rate EWMAs.
        self.routers: list[Router] = []
        self.shards: list[ReplicatedPortal] = []
        for index in range(n_shards):
            router = (router_factory() if router_factory is not None
                      else StalenessAwareRouter())
            self.routers.append(router)
            self.shards.append(ReplicatedPortal(
                env, replicas_per_shard, scheduler_factory,
                streams.spawn(f"shard-{index}"), router=router,
                server_config=server_config,
                failover_retries=failover_retries,
                failover_backoff_ms=failover_backoff_ms,
                durability=durability, monitor=monitor,
                telemetry=self.telemetry, health=health,
                admission_factory=admission_factory,
                telemetry_prefix=f"shard{index}/"))
        #: Each router's update-rate hook (``None``: it tracks no rates),
        #: resolved here rather than per delivered update.
        self._observers: list[
            typing.Callable[[str, float], None] | None] = [
                getattr(router, "observe_update", None)
                for router in self.routers]
        #: Load window the rebalance controller samples (queries routed
        #: + updates delivered per shard since the last sample).
        self._load_window = [0] * n_shards
        #: Lifetime per-shard routing tallies (balance inspection).
        self.query_counts = [0] * n_shards
        self.update_counts = [0] * n_shards
        #: Keys frozen mid-migration -> their (source, dest) group.
        self._migrating: dict[str, _MigrationGroup] = {}
        self._migration_active = False
        self.rebalances = 0
        self.keys_migrated = 0
        self.counters = CounterSet()
        if rebalance is not None and n_shards > 1:
            env.process(self._rebalance_controller(),
                        name="shard-rebalancer")

    def __repr__(self) -> str:
        return (f"<ShardedPortal shards={len(self.shards)} "
                f"weights={self.ring.weights} "
                f"rebalances={self.rebalances}>")

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def owner_of(self, key: str) -> int:
        """The shard ``key`` routes to now: the table's answer, or
        ``ring.owner(key)`` for a key outside the universe (which the
        table never learns — it stays the size of ``keys``)."""
        shard = self._owners.get(key)
        return self.ring.owner(key) if shard is None else shard

    def submit_query(self, query: Query) -> None:
        """Plan the read set over the ring and dispatch."""
        owners = self.planner.split(query, self.owner_of)
        if len(owners) == 1:
            shard = next(iter(owners))
            self._load_window[shard] += 1
            self.query_counts[shard] += 1
            self.counters.increment("queries_single_shard")
            if self._probe is not None:
                self._probe.route(self.env.now, query, shard)
            self.shards[shard].submit_query(query)
            return
        self.counters.increment("queries_fanned_out")
        for shard, sub in self.planner.fan_out(query, owners):
            self._load_window[shard] += 1
            self.query_counts[shard] += 1
            self.shards[shard].adopt_query(sub)

    def route_update(self, arrival_time: float, exec_ms: float, item: str,
                     value: float) -> None:
        """Deliver one update to its owning shard (or freeze it).

        A key mid-migration buffers its updates; the cutover replays
        them on the destination, so nothing is lost and nothing applies
        twice — the ``shard_cutover`` invariant.
        """
        group = self._migrating.get(item)
        if group is not None:
            group.buffer.append((arrival_time, exec_ms, item, value))
            group.buffered += 1
            self.counters.increment("updates_frozen")
            return
        self._deliver_update(self.owner_of(item), arrival_time, exec_ms,
                             item, value)

    def _deliver_update(self, shard: int, arrival_time: float,
                        exec_ms: float, item: str, value: float) -> None:
        self._load_window[shard] += 1
        self.update_counts[shard] += 1
        observe = self._observers[shard]
        if observe is not None:
            observe(item, arrival_time)
        self.shards[shard].broadcast_update(arrival_time, exec_ms, item,
                                            value)

    # ------------------------------------------------------------------
    # Rebalancing under hot-key skew
    # ------------------------------------------------------------------
    def _rebalance_controller(self) -> ProcessGenerator:
        config = typing.cast(RebalanceConfig, self.rebalance)
        n = len(self.shards)
        while True:
            yield self.env.timeout(config.interval_ms)
            loads = list(self._load_window)
            self._load_window = [0] * n
            if self._migration_active:
                continue  # one migration at a time
            total = sum(loads)
            if total <= 0:
                continue
            mean = total / n
            hot = max(range(n), key=lambda i: (loads[i], -i))
            if loads[hot] < config.skew_threshold * mean:
                continue
            if self.ring.weights[hot] <= config.min_weight:
                continue  # cannot shed further
            successor = self.ring.with_weight(
                hot, self.ring.weights[hot] - 1)
            moved = moved_between(self._owners,
                                  successor.owner_table(self.keys))
            if not moved:
                continue
            cold = min(range(n), key=lambda i: (loads[i], i))
            self._migration_active = True
            self.rebalances += 1
            self.counters.increment("rebalances")
            if self._probe is not None:
                self._probe.rebalance(self.env.now, hot, cold, len(moved))
            self.env.process(
                self._migration(successor, moved),
                name=f"shard-migration-{self.rebalances}")

    def _migration(self, successor: HashRing,
                   moved: dict[str, tuple[int, int]]) -> ProcessGenerator:
        """Drain → copy → cutover for one ring change (one weight move).

        Queries keep hitting the *source* throughout (ownership flips
        only at cutover), so reads never block on a migration; updates
        for the moved keys freeze into per-group buffers.
        """
        config = typing.cast(RebalanceConfig, self.rebalance)
        groups: dict[tuple[int, int], _MigrationGroup] = {}
        for key in sorted(moved):
            source, dest = moved[key]
            group = groups.get((source, dest))
            if group is None:
                group = _MigrationGroup(source, dest)
                groups[(source, dest)] = group
            group.keys.append(key)
            self._migrating[key] = group
        ordered = [groups[pair] for pair in sorted(groups)]
        now = self.env.now
        if self._probe is not None:
            for group in ordered:
                self._probe.migrate_start(now, group.source, group.dest,
                                          len(group.keys))
        # Drain: wait for in-flight (registered, unapplied) updates on
        # the moved keys to commit on their source shard.
        polls = max(1, int(config.drain_timeout_ms // config.drain_poll_ms))
        for _ in range(polls):
            pending = any(
                self.shards[group.source].pending_update_for(key)
                for group in ordered for key in group.keys)
            if not pending:
                break
            yield self.env.timeout(config.drain_poll_ms)
        # Salvage: an update still pending after the timeout would apply
        # on the source *after* cutover — to a copy nothing reads any
        # more.  Re-route its value through the buffer so the
        # destination sees it; the stale source apply is then harmless.
        for group in ordered:
            salvaged: list[tuple[float, float, str, float]] = []
            for key in group.keys:
                update = None
                for replica in self.shards[group.source].replicas:
                    if replica.up:
                        update = \
                            replica.server.database.pending_update(key)
                        if update is not None:
                            break
                if update is not None:
                    salvaged.append((self.env.now, update.exec_time,
                                     update.item, update.value))
                    group.buffered += 1
                    self.counters.increment("updates_salvaged")
            group.buffer[:0] = salvaged
        # Copy: partial snapshot over the existing durability primitives.
        for group in ordered:
            snapshot = self.shards[group.source].export_items(group.keys)
            self.shards[group.dest].import_items(snapshot)
            self.keys_migrated += len(group.keys)
            self.counters.increment("keys_migrated", len(group.keys))
            if self._probe is not None:
                self._probe.migrate_copy(self.env.now, group.source,
                                         group.dest, len(snapshot))
        # Cutover: flip ownership, then replay the frozen updates on the
        # destination in buffered order (no yields below — the whole
        # cutover is atomic at one simulated instant).
        self.ring = successor
        owners = self._owners
        for key, (_, dest) in moved.items():
            del self._migrating[key]
            if key in owners:
                owners[key] = dest
        for group in ordered:
            replayed = 0
            for buffered_at, exec_ms, item, value in group.buffer:
                self._deliver_update(group.dest, buffered_at, exec_ms,
                                     item, value)
                replayed += 1
            if self.monitor is not None:
                self.monitor.record(
                    "shard_cutover", source=group.source,
                    dest=group.dest, buffered=group.buffered,
                    replayed=replayed)
            if self._probe is not None:
                self._probe.cutover(self.env.now, group.source,
                                    group.dest, replayed)
        self._migration_active = False

    # ------------------------------------------------------------------
    # End of run + aggregates
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Finalize every shard; fan-out merges resolve via the subs'
        terminal hooks as their servers finalize."""
        for shard in self.shards:
            shard.finalize()
        if self.planner.open_fanouts:  # pragma: no cover - safety net
            raise RuntimeError(
                f"{len(self.planner.open_fanouts)} fan-out merge(s) "
                f"unresolved after finalize")

    def rollup(self) -> ProfitRollup:
        """Every shard's replica ledgers, then the planner's, as one run;
        the counters lead with the portal's and the planner's own."""
        planner = self.planner.ledger
        return ProfitRollup.of(
            [*([r.ledger for r in s.replicas] for s in self.shards),
             [planner]],
            [self.counters.as_dict(), planner.counters.as_dict(),
             *(shard.rollup().counters for shard in self.shards)])
