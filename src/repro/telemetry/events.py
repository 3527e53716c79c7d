"""Typed trace records and the telemetry event taxonomy.

Every record is stamped with *simulated* time only (milliseconds, the
:class:`~repro.sim.environment.Environment` clock) — telemetry observes
the run, it never reads the host clock and never perturbs the event
loop, so results are byte-identical with tracing on or off.

Records come in three shapes, mirroring the Chrome ``trace_event``
phases the exporter targets:

* :class:`SpanRecord` — a duration on a track (a CPU slice, a
  class-switch overhead charge);
* :class:`InstantRecord` — a point event (a transaction lifecycle
  transition, a scheduler decision, a cluster incident);
* :class:`CounterRecord` — a sampled numeric signal (ρ, queue depth).

All three are ``__slots__``-based: a full-scale run emits millions of
records into the tracer's ring buffer, and the per-record footprint is
what bounds tracing overhead when enabled.

The taxonomy below is the complete event vocabulary; the golden
lifecycle test in ``tests/test_telemetry.py`` asserts that every
terminal transaction emits exactly one ``arrive`` → terminal chain.
"""

from __future__ import annotations

import typing

# ----------------------------------------------------------------------
# Categories (per-category enable flags on the Tracer)
# ----------------------------------------------------------------------
#: Transaction lifecycle: arrive → queue → start → ... → terminal.
CAT_TXN = "txn"
#: Scheduler internals: quantum draws, ρ updates, queue switches.
CAT_SCHED = "sched"
#: Cluster incidents: crash, recovery, failover, replay, checkpoint.
CAT_CLUSTER = "cluster"
#: Kernel statistics: events processed per kind.
CAT_KERNEL = "kernel"
#: Shard layer: fan-out/merge chains, migrations, ring rebalances.
CAT_SHARD = "shard"

#: Every known category (the Tracer default enables all of them).
CATEGORIES: frozenset[str] = frozenset(
    {CAT_TXN, CAT_SCHED, CAT_CLUSTER, CAT_KERNEL, CAT_SHARD})

# ----------------------------------------------------------------------
# Transaction lifecycle event names (category "txn")
# ----------------------------------------------------------------------
TXN_ARRIVE = "arrive"          #: submitted to a server
TXN_QUEUE = "queue"            #: entered a scheduler queue
TXN_REJECT = "reject"          #: declined by admission control (terminal)
TXN_START = "start"            #: first time on the CPU
TXN_RESUME = "resume"          #: back on the CPU after a suspension
TXN_PREEMPT = "preempt"        #: kicked off the CPU by an arrival
TXN_SUSPEND = "suspend"        #: quantum expired, progress kept
TXN_RESTART = "restart"        #: 2PL-HP abort, progress lost
TXN_COMMIT = "commit"          #: finished successfully (terminal)
TXN_EXPIRE = "expire"          #: query past its QC lifetime (terminal)
TXN_SUPERSEDE = "supersede"    #: update invalidated by newer (terminal)
TXN_LOST = "lost"              #: died with a crashed replica (terminal)
TXN_UNFINISHED = "unfinished"  #: left in the system at the horizon (terminal)

#: The terminal lifecycle transitions: a traced transaction emits exactly
#: one of these, after exactly one ``arrive``.
TXN_TERMINALS: frozenset[str] = frozenset(
    {TXN_REJECT, TXN_COMMIT, TXN_EXPIRE, TXN_SUPERSEDE, TXN_LOST,
     TXN_UNFINISHED})

# ----------------------------------------------------------------------
# Scheduler event names (category "sched")
# ----------------------------------------------------------------------
SCHED_QUANTUM_DRAW = "quantum_draw"  #: QUTS drew a fresh slot owner (ξ vs ρ)
SCHED_QUEUE_SWITCH = "queue_switch"  #: the CPU's serving class changed
SCHED_RHO_UPDATE = "rho_update"      #: ρ re-optimised at an ω boundary
SCHED_PREEMPTION = "preemption"      #: an arrival preempted the running txn

# ----------------------------------------------------------------------
# Cluster event names (category "cluster")
# ----------------------------------------------------------------------
CLUSTER_CRASH = "crash"            #: a replica (or the portal) fail-stopped
CLUSTER_RECOVER = "recover"        #: a replica rejoined (stale)
CLUSTER_FAILOVER = "failover"      #: a stranded query entered failover
CLUSTER_ADOPT = "adopt"            #: a failed-over query found a new home
CLUSTER_REPLAY = "replay"          #: missed updates replayed at recovery
CLUSTER_CHECKPOINT = "checkpoint"  #: a crash-consistent snapshot was taken

# Gray-failure vocabulary (still category "cluster"):
CLUSTER_SLOW = "slow"              #: a replica's service rate changed
CLUSTER_GAP = "gap"                #: a broadcast sequence gap was detected
CLUSTER_WINDOW = "loss_window"     #: a lossy update window opened
CLUSTER_HEAL = "heal"              #: a lossy window closed + re-sync ran
CLUSTER_BREAKER = "breaker"        #: a circuit breaker changed state
CLUSTER_WAL_CORRUPT = "wal_corrupt"  #: recovery refused a damaged WAL tail

# ----------------------------------------------------------------------
# Shard event names (category "shard")
# ----------------------------------------------------------------------
SHARD_ROUTE = "route"              #: a single-shard query routed to its owner
SHARD_FANOUT = "fanout"            #: a multi-shard query split into subs
SHARD_MERGE = "merge"              #: a fan-out parent resolved (span end)
SHARD_MIGRATE_START = "migrate_start"  #: a key range froze for migration
SHARD_MIGRATE_COPY = "migrate_copy"    #: drained + snapshot copied
SHARD_CUTOVER = "cutover"          #: buffer replayed, ownership flipped
SHARD_REBALANCE = "rebalance"      #: the controller moved ring weight

#: Args payload type: small, JSON-serialisable mappings only.
Args = typing.Optional[typing.Dict[str, typing.Any]]


class TraceRecord:
    """Base record: a named happening on a track at a simulated time.

    ``track`` is a ``"scope/lane"`` path (e.g. ``"replica0/cpu"``); the
    Chrome exporter maps the scope to a process and the lane to a
    thread, which is what gives Perfetto one track per queue / server /
    replica.
    """

    __slots__ = ("ts", "category", "name", "track")

    def __init__(self, ts: float, category: str, name: str,
                 track: str) -> None:
        self.ts = ts
        self.category = category
        self.name = name
        self.track = track

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.category}:{self.name} "
                f"t={self.ts:.3f} track={self.track!r}>")


class InstantRecord(TraceRecord):
    """A point event; ``txn_id`` is -1 for non-transaction events."""

    __slots__ = ("txn_id", "args")

    def __init__(self, ts: float, category: str, name: str, track: str,
                 txn_id: int = -1, args: Args = None) -> None:
        super().__init__(ts, category, name, track)
        self.txn_id = txn_id
        self.args = args


class SpanRecord(TraceRecord):
    """A completed duration (``ts`` .. ``ts + dur``) on a track."""

    __slots__ = ("dur", "txn_id", "args")

    def __init__(self, ts: float, dur: float, category: str, name: str,
                 track: str, txn_id: int = -1, args: Args = None) -> None:
        super().__init__(ts, category, name, track)
        self.dur = dur
        self.txn_id = txn_id
        self.args = args


class CounterRecord(TraceRecord):
    """One sample of a numeric signal (ρ, queue depth, backlog, ...)."""

    __slots__ = ("value",)

    def __init__(self, ts: float, category: str, name: str, track: str,
                 value: float) -> None:
        super().__init__(ts, category, name, track)
        self.value = value
