"""Timing wrappers around the layers' public entry points (``--trace``).

The program under test carries no spans of its own, so the traced run
patches each layer's *public* functions with a wrapper that records one
span per call.  A 30-minute trace makes ~15 million such calls, so spans
are aggregated as they close rather than stored: per span name, a call
count and a **self time** (the span's duration minus the part its child
spans cover).  Everything runs on one thread and the wrapped functions
are all synchronous (they never span an ``await`` or a generator
``yield``), so "the span that caused it" is simply the innermost open
wrapper — one stack.

What cannot be wrapped from outside is code that lives in generators and
private methods: the DES kernel loop, ``DatabaseServer``'s executor
coroutine and commit path, the trace-replay sources.  Their time is the
root span's self time — ``sim.run_residual_s``.

Untraced runs must never see a wrapper: :func:`installed` is what the
harness checks before it starts a clock.
"""

from __future__ import annotations

import time
import typing

import repro.experiments.scaleout as scaleout_mod
import repro.serve.protocol as protocol_mod
from repro.cluster.portal import ReplicatedPortal
from repro.cluster.routers import HedgedRouter
from repro.db.admission import BrownoutAdmission
from repro.db.database import Database
from repro.db.locks import LockManager
from repro.db.server import DatabaseServer
from repro.db.wal import WriteAheadLog
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling.core import SchedulerCore
from repro.scheduling.dual import DualQueueScheduler
from repro.scheduling.quts import QUTSScheduler
from repro.serve.gateway import QCGateway
from repro.shard.planner import ShardPlanner
from repro.shard.ring import HashRing
from repro.shard.router import StalenessAwareRouter
from repro.sim.environment import Environment

#: Marks a wrapper so :func:`installed` can find leftovers.
_MARK = "__bench_span__"

#: ``after(counts, instance, result)``: a count taken where the work
#: happens, next to the span (choosing-metrics §4).
After = typing.Callable[[dict[str, float], typing.Any, typing.Any], None]


def _count_wasted_pick(counts: dict[str, float], _scheduler: typing.Any,
                       txn: typing.Any) -> None:
    if txn is None or not txn.alive:
        counts["scheduling.next_wasted"] += 1


def _track_query_depth(counts: dict[str, float], scheduler: typing.Any,
                       _result: typing.Any) -> None:
    depth = scheduler.pending_queries()
    if depth > counts["scheduling.query_depth_max"]:
        counts["scheduling.query_depth_max"] = depth


def _count_lock_conflicts(counts: dict[str, float], _locks: typing.Any,
                          result: typing.Any) -> None:
    if result.restarted or result.blocking_holders:
        counts["db.locks.conflicts"] += (len(result.restarted)
                                         + len(result.blocking_holders))


class _EventCounter:
    """An ``Environment.telemetry`` observer that only counts events."""

    def __init__(self, counts: dict[str, float]) -> None:
        self._counts = counts

    def on_event(self, _event: typing.Any) -> None:
        self._counts["sim.events"] += 1


#: (owner, attribute, span name, after-hook).  One span name per
#: per-layer metric family; a class that overrides the method gets its
#: own row, because patching the base would miss it.
_LEDGER_HOOKS = ("on_query_submitted", "on_query_committed",
                 "on_query_dropped", "on_query_rejected",
                 "on_query_lost_to_crash", "on_query_unfinished",
                 "on_update_applied", "on_update_superseded",
                 "on_update_unfinished", "on_restart")

TARGETS: list[tuple[typing.Any, str, str, After | None]] = [
    # scheduling: both two-queue policies the workloads use.
    (QUTSScheduler, "submit_query", "scheduling.submit", _track_query_depth),
    (QUTSScheduler, "submit_update", "scheduling.submit", None),
    (QUTSScheduler, "requeue", "scheduling.submit", None),
    (QUTSScheduler, "next_transaction", "scheduling.next",
     _count_wasted_pick),
    (QUTSScheduler, "quantum", "scheduling.quantum", None),
    (DualQueueScheduler, "submit_query", "scheduling.submit",
     _track_query_depth),
    (DualQueueScheduler, "submit_update", "scheduling.submit", None),
    (DualQueueScheduler, "next_transaction", "scheduling.next",
     _count_wasted_pick),
    (SchedulerCore, "quantum", "scheduling.quantum", None),
    # db
    (DatabaseServer, "submit_query", "db.server.submit", None),
    (DatabaseServer, "submit_update", "db.server.submit", None),
    (DatabaseServer, "adopt_query", "db.server.submit", None),
    (LockManager, "acquire_all", "db.locks.acquire", _count_lock_conflicts),
    (LockManager, "release_all", "db.locks.release", None),
    (Database, "register_update", "db.database.register", None),
    (Database, "apply_update", "db.database.apply", None),
    (Database, "query_staleness", "db.database.staleness", None),
    (BrownoutAdmission, "admit", "db.admission.admit", None),
    (WriteAheadLog, "append_applied", "db.wal.append", None),
    (WriteAheadLog, "flush", "db.wal.flush", None),
    (WriteAheadLog, "take_checkpoint", "db.wal.checkpoint", None),
    # qc
    (QCFactory, "sample", "qc.sample", None),
    (QualityContract, "evaluate", "qc.evaluate", None),
    # metrics
    *[(ProfitLedger, hook, "metrics.ledger", None)
      for hook in _LEDGER_HOOKS],
    # workload (the only generator-side work inside a timed region)
    (scaleout_mod, "split_update_streams", "workload.split", None),
    # cluster
    (ReplicatedPortal, "submit_query", "cluster.submit", None),
    (ReplicatedPortal, "adopt_query", "cluster.submit", None),
    (ReplicatedPortal, "broadcast_update", "cluster.broadcast", None),
    (HedgedRouter, "choose", "cluster.route", None),
    (HedgedRouter, "choose_backup", "cluster.route", None),
    (ReplicatedPortal, "recover_replica", "cluster.recover", None),
    # shard
    (HashRing, "owner", "shard.ring.owner", None),
    (ShardPlanner, "fan_out", "shard.planner.fan_out", None),
    (StalenessAwareRouter, "choose", "shard.router.choose", None),
    # serve
    (protocol_mod, "decode_request", "serve.protocol.decode", None),
    (protocol_mod, "encode_reply", "serve.protocol.encode", None),
    (QCGateway, "submit_query", "serve.gateway.submit", None),
    (QCGateway, "submit_update", "serve.gateway.submit", None),
]

SPAN_NAMES = sorted({span for _, _, span, _ in TARGETS})


def installed() -> list[str]:
    """Names of wrappers currently patched in (empty when untraced)."""
    found = [f"{getattr(owner, '__name__', owner)}.{attr}"
             for owner, attr, _, _ in TARGETS
             if hasattr(getattr(owner, attr), _MARK)]
    if hasattr(Environment.run, _MARK):
        found.append("Environment.run")
    return found


class SpanTracer:
    """Aggregated spans: ``calls[name]``, ``self_s[name]`` and the
    boundary counts in ``counts``."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts: dict[str, float] = {
            "sim.events": 0, "scheduling.next_wasted": 0,
            "scheduling.query_depth_max": 0, "db.locks.conflicts": 0}
        #: Child-time accumulator of each open span; [0] is the root's.
        self._open: list[float] = [0.0]
        self._originals: list[tuple[typing.Any, str, typing.Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: typing.Callable[..., typing.Any], name: str,
              after: After | None) -> typing.Callable[..., typing.Any]:
        calls, self_s, open_, counts = (self.calls, self.self_s, self._open,
                                        self.counts)
        clock = time.perf_counter

        def span(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_.pop()
                open_[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if after is not None:
                after(counts, args[0], result)
            return result

        setattr(span, _MARK, name)
        return span

    def install(self) -> None:
        """Patch every target (idempotence is the caller's job: a second
        install would wrap wrappers, so :func:`installed` must be empty)."""
        if installed():
            raise RuntimeError(f"wrappers already installed: {installed()}")
        for owner, attr, name, after in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))
        # The kernel's public observer slot gives the event count; the
        # run() wrapper only plants it (no span: run() *is* the residual).
        original_run = Environment.run
        counter = _EventCounter(self.counts)

        def run(env: Environment, until: typing.Any = None) -> typing.Any:
            if env.telemetry is None:
                env.telemetry = counter
            return original_run(env, until)

        setattr(run, _MARK, "sim.run")
        self._originals.append((Environment, "run", original_run))
        Environment.run = run  # type: ignore[method-assign]

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open the root span: forget everything recorded so far."""
        for name in SPAN_NAMES:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        for name in self.counts:
            self.counts[name] = 0
        self._open[:] = [0.0]

    def end(self) -> float:
        """Close the root span; returns the seconds its child spans
        cover, so the caller's ``wall - end()`` is the root's self time."""
        if len(self._open) != 1:
            raise RuntimeError("span stack not balanced at the root's end")
        return self._open[0]
