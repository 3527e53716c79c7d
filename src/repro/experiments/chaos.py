"""Chaos search: sampled gray-failure schedules vs the invariant oracle.

``repro chaos`` closes the robustness loop.  The fault taxonomy
(:mod:`repro.faults`) can *express* gray failures and the defense layer
(:mod:`repro.cluster.health`, brownout admission) claims to *survive*
them — this harness goes looking for counterexamples:

1. **sample** — each seed index derives a random incident schedule from
   the master seed (named stream ``chaos.schedule-<i>``): slowdowns,
   lossy broadcast windows, WAL corruption, crashes;
2. **run** — every schedule is replayed against every policy under an
   armed :class:`~repro.sim.invariants.InvariantMonitor`, with
   durability and the health layer on.  The oracle is the monitor: a
   run either completes with every conservation law intact, or raises
   :class:`~repro.sim.invariants.InvariantViolation`;
3. **shrink** — a failing schedule is delta-debugged
   (:func:`repro.faults.shrink_incidents`) down to a minimal incident
   list that still reproduces, and the result is written as a JSON repro
   artifact embedding the exact :class:`~repro.faults.FaultPlan`.

Everything is deterministic: the same master seed produces bit-identical
schedules, verdicts, shrunk repros, and artifact bytes.  The
``planted_bug`` mode arms the deliberately-broken re-sync path
(:data:`repro.cluster.portal.PLANTED_RESYNC_BUG`) and *expects* the
harness to catch it — the meta-test that proves the oracle can see and
the shrinker can localise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

from repro.cluster import HealthConfig, HedgedRouter, run_cluster_simulation
from repro.db.wal import DurabilityConfig
from repro.faults import (DROP_UPDATES, FaultIncident, ShrinkResult,
                          expand_incidents, sample_incidents,
                          shrink_incidents)
from repro.parallel import Task, run_tasks
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.sim.invariants import InvariantViolation
from repro.sim.rng import StreamRegistry
from repro.workload.traces import Trace

from .config import ExperimentConfig

CHAOS_POLICIES = ("FIFO", "QUTS")
CHAOS_REPLICAS = 3
#: Oracle-run budget for shrinking one failing schedule.
DEFAULT_SHRINK_BUDGET = 48


def _chaos_trace(config: ExperimentConfig,
                 horizon_ms: float | None) -> Trace:
    trace = config.trace()
    if horizon_ms is not None and horizon_ms < trace.duration_ms:
        return trace.slice(horizon_ms, name=f"{trace.name}-chaos")
    return trace


def _verdict(policy: str, trace: Trace, n_replicas: int,
             incidents: typing.Sequence[FaultIncident], sim_seed: int,
             health: HealthConfig, durability: DurabilityConfig,
             ) -> str | None:
    """Run one schedule under the invariant oracle; the violation
    message when a law broke, None on a clean run."""
    try:
        run_cluster_simulation(
            n_replicas, lambda: make_scheduler(policy), trace,
            QCFactory.balanced(), router=HedgedRouter(),
            master_seed=sim_seed,
            fault_plan=expand_incidents(incidents),
            durability=durability, invariants=True, health=health)
    except InvariantViolation as violation:
        # Keep only the law message: the artifact names the broken law,
        # not the "most recent events" debug tail.
        return str(violation).split("\nmost recent events:", 1)[0]
    return None


def _chaos_cell(policy: str, trace: Trace, n_replicas: int,
                incidents: typing.Sequence[FaultIncident], sim_seed: int,
                health: HealthConfig, durability: DurabilityConfig,
                planted_bug: bool, shrink_budget: int,
                ) -> tuple[str | None, ShrinkResult | None]:
    """One seed × policy cell: verdict, plus the shrink when it failed.

    Module-level and picklable on both ends so :func:`chaos_search` can
    fan the matrix out over a :mod:`repro.parallel` worker pool.  The
    planted-bug flag is set (and restored) *inside* the cell because
    that is the process the oracle actually runs in.
    """
    from repro.cluster import portal as portal_module
    previous_flag = portal_module.PLANTED_RESYNC_BUG
    if planted_bug:
        portal_module.PLANTED_RESYNC_BUG = True
    try:
        violation = _verdict(policy, trace, n_replicas, incidents,
                             sim_seed, health, durability)
        if violation is None:
            return None, None
        result = shrink_incidents(
            incidents,
            lambda candidate: _verdict(
                policy, trace, n_replicas, candidate,
                sim_seed, health, durability) is not None,
            max_checks=shrink_budget)
        return violation, result
    finally:
        portal_module.PLANTED_RESYNC_BUG = previous_flag


def chaos_search(config: ExperimentConfig, *,
                 seeds: int = 8,
                 policies: typing.Sequence[str] = CHAOS_POLICIES,
                 n_replicas: int = CHAOS_REPLICAS,
                 horizon_ms: float | None = None,
                 out_dir: str | pathlib.Path = "chaos_repros",
                 planted_bug: bool = False,
                 shrink_budget: int = DEFAULT_SHRINK_BUDGET,
                 mean_incidents: float = 3.0,
                 workers: int | None = None,
                 log: typing.Callable[[str], None] = lambda line: None,
                 ) -> list[dict[str, typing.Any]]:
    """Run the seed × policy chaos matrix; one verdict row per run.

    Failing runs are shrunk and emitted as JSON repro artifacts under
    ``out_dir`` (``chaos_repro_seed<i>_<policy>.json``).  With
    ``planted_bug`` the deliberately broken heal re-sync is armed inside
    every cell (restored on exit, even on error) and every schedule gets
    one guaranteed drop-window incident so the bug has something to
    break.

    The matrix fans out over ``workers`` processes via
    :mod:`repro.parallel`.  Rows, log lines, and artifact bytes are
    identical for any worker count: schedules are sampled up front from
    order-independent named streams, each cell (oracle run + shrink) is
    self-contained, and the parent writes every artifact in submission
    order.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    trace = _chaos_trace(config, horizon_ms)
    horizon = trace.duration_ms
    health = HealthConfig()
    durability = DurabilityConfig(
        checkpoint_interval_ms=max(2_000.0, horizon / 6.0), flush_every=8)
    registry = StreamRegistry(config.run_seed)

    cells: list[tuple[int, str, list[FaultIncident], int]] = []
    for index in range(seeds):
        rng = registry.stream(f"chaos.schedule-{index}")
        incidents = sample_incidents(rng, n_replicas, horizon,
                                     mean_incidents=mean_incidents)
        if planted_bug:
            # Guarantee a drop window so the broken heal must fire.
            # Incidents are exclusive per replica, so evict sampled
            # incidents that would overlap the planted window.
            planted = FaultIncident(
                DROP_UPDATES, min(1, n_replicas - 1),
                horizon * 0.25, horizon * 0.25)
            incidents = sorted(
                [i for i in incidents
                 if i.replica != planted.replica
                 or i.end_ms <= planted.at_ms
                 or i.at_ms >= planted.end_ms] + [planted],
                key=lambda i: (i.at_ms, i.replica, i.kind))
        sim_seed = config.run_seed + index
        for policy in policies:
            cells.append((index, policy, list(incidents), sim_seed))

    tasks = [Task(fn=_chaos_cell,
                  args=(policy, trace, n_replicas, tuple(incidents),
                        sim_seed, health, durability, planted_bug,
                        shrink_budget),
                  key=f"chaos-seed{index}-{policy}")
             for index, policy, incidents, sim_seed in cells]
    outcomes = run_tasks(tasks, workers)

    rows: list[dict[str, typing.Any]] = []
    for (index, policy, incidents, sim_seed), (violation, result) in zip(
            cells, outcomes):
        row: dict[str, typing.Any] = {
            "seed_index": index, "policy": policy,
            "incidents": len(incidents),
            "failed": violation is not None,
        }
        if violation is not None and result is not None:
            log(f"seed {index} × {policy}: INVARIANT VIOLATION — "
                f"shrinking ({len(incidents)} incidents)")
            artifact = _write_artifact(
                pathlib.Path(out_dir), index, policy, sim_seed,
                config, trace, n_replicas, incidents, result, violation)
            row["shrunk_incidents"] = len(result.incidents)
            row["oracle_runs"] = result.checks
            row["artifact"] = str(artifact)
            log(f"  shrunk to {len(result.incidents)} incident(s) "
                f"in {result.checks} oracle run(s) -> {artifact}")
        else:
            log(f"seed {index} × {policy}: ok "
                f"({len(incidents)} incidents)")
        rows.append(row)
    return rows


def _write_artifact(out_dir: pathlib.Path, index: int, policy: str,
                    sim_seed: int, config: ExperimentConfig, trace: Trace,
                    n_replicas: int,
                    sampled: typing.Sequence[FaultIncident],
                    result: typing.Any, violation: str) -> pathlib.Path:
    """One self-contained JSON repro: everything needed to re-run the
    minimal failing schedule (bit-identical for a given master seed)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"chaos_repro_seed{index}_{policy}.json"
    payload = {
        "schema": "repro.chaos/1",
        "master_seed": config.run_seed,
        "schedule_stream": f"chaos.schedule-{index}",
        "sim_seed": sim_seed,
        "policy": policy,
        "scale": config.scale,
        "trace": trace.name,
        "horizon_ms": trace.duration_ms,
        "n_replicas": n_replicas,
        "violation": violation,
        "sampled_incidents": [i.as_dict() for i in sampled],
        "shrunk_incidents": [i.as_dict() for i in result.incidents],
        "fault_plan": expand_incidents(result.incidents).as_dicts(),
        "shrink": {"oracle_runs": result.checks,
                   "incidents_removed": result.removed,
                   "durations_narrowed": result.narrowed,
                   "budget_exhausted": result.exhausted},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# CLI: ``repro chaos`` (dispatched before the experiment parser)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Deterministic chaos search: sampled gray-failure "
                    "schedules vs the invariant oracle, with automatic "
                    "shrinking of failing schedules to minimal JSON "
                    "repros")
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of sampled schedules (default 8)")
    parser.add_argument("--policies", default=",".join(CHAOS_POLICIES),
                        help="comma-separated policies to run each "
                             "schedule against")
    parser.add_argument("--scale", default=None,
                        choices=("smoke", "standard", "full"),
                        help="workload scale (default: $REPRO_SCALE or "
                             "'standard')")
    parser.add_argument("--horizon-ms", type=float, default=None,
                        help="truncate the trace to this horizon "
                             "(shorter = faster oracle runs)")
    parser.add_argument("--replicas", type=int, default=CHAOS_REPLICAS,
                        help=f"cluster size (default {CHAOS_REPLICAS})")
    parser.add_argument("--out", default="chaos_repros",
                        help="directory for shrunk JSON repro artifacts")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed (schedules, sim seeds)")
    parser.add_argument("--shrink-budget", type=int,
                        default=DEFAULT_SHRINK_BUDGET,
                        help="max oracle runs per shrink")
    parser.add_argument("--mean-incidents", type=float, default=3.0,
                        help="mean incidents per replica per schedule")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the seed × policy "
                             "matrix (default: $REPRO_WORKERS or 1; "
                             "results are identical for any count)")
    parser.add_argument("--planted-bug", action="store_true",
                        help="arm the deliberately broken heal re-sync; "
                             "exit 0 iff the harness catches it (the "
                             "self-proving meta-run)")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .config import chosen_scale
    config = ExperimentConfig(scale=chosen_scale(args.scale),
                              run_seed=args.seed)
    policies = tuple(p.strip() for p in args.policies.split(",")
                     if p.strip())
    if not policies:
        print("no policies given")
        return 2
    rows = chaos_search(config, seeds=args.seeds, policies=policies,
                        n_replicas=args.replicas,
                        horizon_ms=args.horizon_ms, out_dir=args.out,
                        planted_bug=args.planted_bug,
                        shrink_budget=args.shrink_budget,
                        mean_incidents=args.mean_incidents,
                        workers=args.workers, log=print)
    failures = [row for row in rows if row["failed"]]
    print(f"\nchaos: {len(rows)} run(s), {len(failures)} failure(s)")
    if args.planted_bug:
        # Meta-mode: the harness must catch the planted bug.
        if not failures:
            print("planted bug NOT caught — the chaos harness is blind")
            return 1
        print("planted bug caught and shrunk (harness verified)")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
