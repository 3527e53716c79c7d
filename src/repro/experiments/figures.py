"""Per-figure experiment drivers.

Each ``figN`` function regenerates the data behind the corresponding figure
of the paper and returns it in a structured form; ``main``-style callers
(the CLI and the benchmark harness) render it with
:mod:`repro.experiments.report`.  See EXPERIMENTS.md for paper-vs-measured
comparisons.
"""

from __future__ import annotations

import statistics
import typing

from repro.metrics.results import SimulationResult, improvement_percent
from repro.parallel import Task, run_tasks
from repro.qc.generator import PhasedQCFactory, QCFactory
from repro.scheduling import QUTSScheduler, make_scheduler
from repro.workload import stats as trace_stats
from repro.workload.synthetic import StockWorkloadGenerator
from repro.workload.traces import Trace

from .config import (POLICY_NAMES, ExperimentConfig, table4_grid)
from .runner import QCSource, run_simulation


# ----------------------------------------------------------------------
# Worker task functions (module-level so they pickle; schedulers are
# constructed *inside* the task — they are stateful once bound)
# ----------------------------------------------------------------------
def _policy_run_task(policy: str, trace: Trace,
                     qc_source: QCSource | None,
                     master_seed: int) -> SimulationResult:
    return run_simulation(make_scheduler(policy), trace, qc_source,
                          master_seed=master_seed)


def _quts_param_task(param: str, value: float, trace: Trace,
                     qc_source: QCSource | None,
                     master_seed: int) -> SimulationResult:
    scheduler = QUTSScheduler(**{param: value})
    return run_simulation(scheduler, trace, qc_source,
                          master_seed=master_seed)


# ----------------------------------------------------------------------
# Figure 1 — the trade-off triangle of the naive policies
# ----------------------------------------------------------------------
def fig1(config: ExperimentConfig | None = None,
         trace: Trace | None = None) -> list[dict[str, typing.Any]]:
    """FIFO / FIFO-UH / FIFO-QH: mean response time vs mean staleness.

    No quality contracts — this is the motivating experiment showing that
    all three naive points are mutually non-dominating.
    """
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    names = ("FIFO", "FIFO-UH", "FIFO-QH")
    results = run_tasks(
        [Task(_policy_run_task, (name, trace, None, config.run_seed),
              key=name) for name in names],
        config.workers)
    return [{
        "policy": name,
        "response_time_ms": result.mean_response_time,
        "staleness_uu": result.mean_staleness,
    } for name, result in zip(names, results)]


# ----------------------------------------------------------------------
# Figure 5 — trace characteristics
# ----------------------------------------------------------------------
def fig5(config: ExperimentConfig | None = None) -> dict[str, typing.Any]:
    """Query/update rate series and the per-stock scatter summary."""
    config = config or ExperimentConfig.from_env()
    generator = StockWorkloadGenerator(config.spec(), config.workload_seed)
    trace = generator.generate()
    query_rates = trace_stats.query_rate_series(trace)
    update_rates = trace_stats.update_rate_series(trace)
    per_stock = trace_stats.per_stock_counts(trace)
    return {
        "trace": trace,
        "query_rates": query_rates,
        "update_rates": update_rates,
        "per_stock": per_stock,
        "summary": {
            "query_rate_mean": query_rates.mean,
            "query_rate_max": query_rates.maximum,
            "update_rate_first_half": update_rates.first_half_mean(),
            "update_rate_second_half": update_rates.second_half_mean(),
            "fraction_below_diagonal":
                per_stock.fraction_below_diagonal(),
            "n_crowds": len(generator.crowds),
        },
    }


# ----------------------------------------------------------------------
# Figures 6/7/8 — profit percentages under QCs
# ----------------------------------------------------------------------
def _profit_row(result: SimulationResult) -> dict[str, typing.Any]:
    return {
        "policy": result.scheduler_name,
        "QOS%": result.qos_percent,
        "QOD%": result.qod_percent,
        "total%": result.total_percent,
        "rt_ms": result.mean_response_time,
        "uu": result.mean_staleness,
    }


def fig6(config: ExperimentConfig | None = None,
         trace: Trace | None = None) -> dict[str, list[dict]]:
    """Step vs linear QCs for the four policies (balanced preferences)."""
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    shapes = ("step", "linear")
    tasks = [
        Task(_policy_run_task,
             (name, trace,
              QCFactory.balanced(shape=shape),  # type: ignore[arg-type]
              config.run_seed),
             key=f"{shape}/{name}")
        for shape in shapes for name in POLICY_NAMES]
    results = iter(run_tasks(tasks, config.workers))
    return {shape: [_profit_row(next(results)) for __ in POLICY_NAMES]
            for shape in shapes}


def _spectrum_tasks(policy: str, config: ExperimentConfig,
                    trace: Trace) -> list[Task]:
    return [Task(_policy_run_task, (policy, trace, factory,
                                    config.run_seed),
                 key=f"{policy}/qod={qod_percent:g}")
            for qod_percent, factory in table4_grid()]


def _spectrum_rows(results: typing.Sequence[SimulationResult],
                   ) -> list[dict[str, typing.Any]]:
    rows = []
    for (qod_percent, __), result in zip(table4_grid(), results):
        row = _profit_row(result)
        row["QODmax%"] = qod_percent
        row["QOSmax%"] = result.ledger.qos_max_percent
        rows.append(row)
    return rows


def _spectrum(policy: str, config: ExperimentConfig,
              trace: Trace) -> list[dict[str, typing.Any]]:
    return _spectrum_rows(run_tasks(_spectrum_tasks(policy, config, trace),
                                    config.workers))


def fig7(config: ExperimentConfig | None = None,
         trace: Trace | None = None) -> list[dict[str, typing.Any]]:
    """FIFO across the Table 4 spectrum."""
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    return _spectrum("FIFO", config, trace)


def fig8(config: ExperimentConfig | None = None,
         trace: Trace | None = None,
         policies: typing.Sequence[str] = ("UH", "QH", "QUTS"),
         ) -> dict[str, list[dict[str, typing.Any]]]:
    """UH / QH / QUTS across the Table 4 spectrum, plus the paper's
    headline improvement factors."""
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    # One flat task list over the full policy × Table-4 cross product, so
    # --workers parallelises across policies as well as spectrum points.
    tasks = [task for name in policies
             for task in _spectrum_tasks(name, config, trace)]
    flat = iter(run_tasks(tasks, config.workers))
    n_points = len(table4_grid())
    out: dict[str, list[dict[str, typing.Any]]] = {
        name: _spectrum_rows([next(flat) for __ in range(n_points)])
        for name in policies}
    if {"UH", "QH", "QUTS"} <= set(out):
        out["improvements"] = [{
            "QODmax%": quts_row["QODmax%"],
            "QUTS_vs_UH_%": improvement_percent(
                quts_row["total%"], uh_row["total%"]),
            "QUTS_vs_QH_%": improvement_percent(
                quts_row["total%"], qh_row["total%"]),
        } for quts_row, uh_row, qh_row in zip(
            out["QUTS"], out["UH"], out["QH"])]
    return out


# ----------------------------------------------------------------------
# Figure 9 — adaptability to changing user preferences
# ----------------------------------------------------------------------
#: The paper's interval length: the 300 s experiment is split into four
#: 75 s phases with the qosmax:qodmax ratio flipping 1:5 <-> 5:1.
FIG9_PHASE_MS = 75_000.0
FIG9_RATIOS = (0.2, 5.0, 0.2, 5.0)


def fig9_contracts(duration_ms: float) -> PhasedQCFactory:
    """Figure 9's contract schedule over ``duration_ms``: at least one
    :data:`FIG9_PHASE_MS` phase, the ratio cycling through
    :data:`FIG9_RATIOS`."""
    n_phases = max(1, round(duration_ms / FIG9_PHASE_MS))
    return PhasedQCFactory.flip_flop(
        FIG9_PHASE_MS,
        [FIG9_RATIOS[i % len(FIG9_RATIOS)] for i in range(n_phases)])


def fig9(config: ExperimentConfig | None = None,
         trace: Trace | None = None,
         scheduler: QUTSScheduler | None = None) -> dict[str, typing.Any]:
    """QUTS under flip-flopping preferences: profit tracking + ρ."""
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    factory = fig9_contracts(trace.duration_ms)
    scheduler = scheduler or QUTSScheduler()
    result = run_simulation(scheduler, trace, factory,
                            master_seed=config.run_seed)
    assert result.rho_series is not None
    phase_rho = []
    for k, (start, __) in enumerate(factory.phases):
        end = start + FIG9_PHASE_MS
        values = [v for t, v in result.rho_series.items()
                  if start <= t < end]
        phase_rho.append({
            "phase": k,
            "ratio_qos_to_qod": FIG9_RATIOS[k % len(FIG9_RATIOS)],
            "mean_rho": statistics.fmean(values) if values else float("nan"),
        })
    return {
        "result": result,
        "phase_rho": phase_rho,
        "gained_total": result.profit_timeline(),
        "max_total": result.profit_timeline(gained=False),
        "rho_series": result.rho_series,
    }


# ----------------------------------------------------------------------
# Figure 10 — sensitivity to ω and τ
# ----------------------------------------------------------------------
#: The paper's sweeps: ω over 0.1-100 s, τ over 1-1000 ms.
FIG10_OMEGAS_MS = (100.0, 1_000.0, 10_000.0, 100_000.0)
FIG10_TAUS_MS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0)


def fig10(config: ExperimentConfig | None = None,
          trace: Trace | None = None,
          omegas: typing.Sequence[float] = FIG10_OMEGAS_MS,
          taus: typing.Sequence[float] = FIG10_TAUS_MS,
          ) -> dict[str, list[dict[str, typing.Any]]]:
    """Total profit percentage as ω and τ vary (Fig 9 workload setup)."""
    config = config or ExperimentConfig.from_env()
    trace = trace if trace is not None else config.trace()
    factory = fig9_contracts(trace.duration_ms)

    sweep = ([("omega", omega) for omega in omegas]
             + [("tau", tau) for tau in taus])
    results = run_tasks(
        [Task(_quts_param_task, (param, value, trace, factory,
                                 config.run_seed),
              key=f"{param}={value:g}") for param, value in sweep],
        config.workers)
    omega_rows = [{"omega_ms": value, "total%": result.total_percent}
                  for (param, value), result in zip(sweep, results)
                  if param == "omega"]
    tau_rows = [{"tau_ms": value, "total%": result.total_percent}
                for (param, value), result in zip(sweep, results)
                if param == "tau"]
    return {"omega": omega_rows, "tau": tau_rows}
