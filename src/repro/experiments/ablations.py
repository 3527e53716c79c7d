"""Ablation studies of the design choices DESIGN.md calls out.

Four sweeps, each returning report-ready rows:

* :func:`ablation_rho` — adaptive ρ (Eq. 4-6) vs a grid of fixed ρ under
  the Figure 9 flip-flop preferences;
* :func:`ablation_low_level` — QUTS with each low-level query policy
  (VRD / FCFS / EDF / profit-rate) plus the inherited-QoD update policy,
  against a UH yardstick;
* :func:`ablation_invalidation` — the update register table on vs off;
* :func:`ablation_preemption` — restart vs suspend semantics for
  cross-class-preempted updates, on QH and QUTS.

These back the ``benchmarks/test_ablation_*.py`` harness and the
``repro ablation`` CLI command.
"""

from __future__ import annotations

import typing

from repro.db.server import ServerConfig
from repro.parallel import Task, run_tasks
from repro.qc.generator import QCFactory
from repro.scheduling import (InheritanceQUTSScheduler, QUTSScheduler,
                              make_priority, make_qh, make_uh)
from repro.workload.traces import Trace

from repro.metrics.results import SimulationResult

from .config import ExperimentConfig
from .figures import fig9_contracts
from .runner import QCSource, run_simulation

Row = dict[str, typing.Any]

#: Fixed-ρ grid for the adaptation ablation.
FIXED_RHOS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: Low-level query policies exercised by the modularity ablation.
QUERY_POLICIES = ("vrd", "fcfs", "edf", "profit-rate")


def _profit_cells(result: SimulationResult) -> Row:
    return {"QOS%": result.qos_percent, "QOD%": result.qod_percent,
            "total%": result.total_percent}


# ----------------------------------------------------------------------
# Worker task functions (module-level so they pickle; schedulers are
# constructed inside the worker — they are stateful once bound)
# ----------------------------------------------------------------------
def _rho_task(fixed_rho: float | None, trace: Trace, factory: QCSource,
              master_seed: int) -> SimulationResult:
    scheduler = (QUTSScheduler() if fixed_rho is None
                 else QUTSScheduler(fixed_rho=fixed_rho))
    return run_simulation(scheduler, trace, factory,
                          master_seed=master_seed)


def _low_level_task(kind: str, trace: Trace, factory: QCSource,
                    master_seed: int) -> SimulationResult:
    if kind == "inherited":
        scheduler = InheritanceQUTSScheduler()
    elif kind == "uh":
        scheduler = make_uh()
    else:
        scheduler = QUTSScheduler(query_policy=make_priority(kind))
    return run_simulation(scheduler, trace, factory,
                          master_seed=master_seed)


def _invalidation_task(invalidation: bool, trace: Trace,
                       factory: QCSource,
                       master_seed: int) -> SimulationResult:
    return run_simulation(make_qh(), trace, factory,
                          master_seed=master_seed,
                          invalidation=invalidation)


def _preemption_task(policy_name: str, semantics: str, trace: Trace,
                     factory: QCSource,
                     master_seed: int) -> SimulationResult:
    scheduler = make_qh() if policy_name == "QH" else QUTSScheduler()
    return run_simulation(
        scheduler, trace, factory, master_seed=master_seed,
        server_config=ServerConfig(update_preemption=semantics))


def ablation_rho(config: ExperimentConfig,
                 trace: Trace | None = None) -> list[Row]:
    """Fixed-ρ grid + the adaptive scheduler, Figure 9 workload."""
    trace = trace if trace is not None else config.trace()
    factory = fig9_contracts(trace.duration_ms)
    points = list(FIXED_RHOS) + [None]  # None = adaptive (Eq. 4-6)
    results = run_tasks(
        [Task(_rho_task, (rho, trace, factory, config.run_seed),
              key="rho=adaptive" if rho is None else f"rho={rho:g}")
         for rho in points],
        config.workers)
    return [{"rho": ("adaptive (Eq. 4-6)" if rho is None
                     else f"fixed {rho:.1f}"),
             **_profit_cells(result)}
            for rho, result in zip(points, results)]


def ablation_low_level(config: ExperimentConfig,
                       trace: Trace | None = None) -> list[Row]:
    """QUTS low-level plug-ins (balanced QCs), with UH for scale."""
    trace = trace if trace is not None else config.trace()
    factory = QCFactory.balanced()
    kinds = list(QUERY_POLICIES) + ["inherited", "uh"]
    labels = ([f"queries: {name}" for name in QUERY_POLICIES]
              + ["updates: inherited-QoD", "(UH baseline, for scale)"])
    results = run_tasks(
        [Task(_low_level_task, (kind, trace, factory, config.run_seed),
              key=kind) for kind in kinds],
        config.workers)
    return [{"low_level": label, **_profit_cells(result)}
            for label, result in zip(labels, results)]


def ablation_invalidation(config: ExperimentConfig,
                          trace: Trace | None = None) -> list[Row]:
    """Update register table on vs off (QH, balanced QCs)."""
    trace = trace if trace is not None else config.trace()
    factory = QCFactory.balanced()
    settings = (True, False)
    results = run_tasks(
        [Task(_invalidation_task, (invalidation, trace, factory,
                                   config.run_seed),
              key=f"invalidation={invalidation}")
         for invalidation in settings],
        config.workers)
    return [{
        "register table": "on (paper)" if invalidation else "off",
        **_profit_cells(result),
        "uu": result.mean_staleness,
        "superseded": result.counters.get("updates_superseded", 0),
        "unfinished_updates":
            result.counters.get("updates_unfinished", 0),
    } for invalidation, result in zip(settings, results)]


def ablation_preemption(config: ExperimentConfig,
                        trace: Trace | None = None) -> list[Row]:
    """Restart vs suspend semantics for preempted updates (QH, QUTS)."""
    trace = trace if trace is not None else config.trace()
    factory = QCFactory.balanced()
    combos = [(policy_name, semantics)
              for policy_name in ("QH", "QUTS")
              for semantics in ("restart", "suspend")]
    results = run_tasks(
        [Task(_preemption_task, (policy_name, semantics, trace, factory,
                                 config.run_seed),
              key=f"{policy_name}/{semantics}")
         for policy_name, semantics in combos],
        config.workers)
    return [{
        "policy": policy_name,
        "preempted update": semantics,
        **_profit_cells(result),
        "update_restarts": result.counters.get("restarts_updates", 0),
    } for (policy_name, semantics), result in zip(combos, results)]


#: Registry for the CLI.
ABLATIONS: dict[str, typing.Callable[..., list[Row]]] = {
    "rho": ablation_rho,
    "low-level": ablation_low_level,
    "invalidation": ablation_invalidation,
    "preemption": ablation_preemption,
}
