"""The ``repro trace`` subcommand: run one instrumented simulation.

``repro trace figures --fig 5 --out trace.json`` replays the selected
figure's workload under a telemetry session and writes a Chrome
``trace_event`` JSON file — load it at https://ui.perfetto.dev (or
``chrome://tracing``) to see per-queue tracks for ρ, queue depths, CPU
occupancy, and every transaction's lifecycle instants.

The figure number picks the *workload configuration*, mirroring the
figure drivers: Figure 1 runs without quality contracts (the free
contract), Figures 9/10 run the flip-flopping preference phases that
exercise ρ adaptation, everything else uses the balanced QC mix.  The
default scale is ``smoke`` (1 simulated minute): tracing is verbose, and
a smoke run already produces hundreds of thousands of records.

This module is dispatched from :mod:`repro.cli` before the experiment
parser (it has its own grammar, like ``repro lint``) and is imported
lazily so plain experiment runs never pay for it.
"""

from __future__ import annotations

import argparse
import os
import typing

from repro.experiments import ExperimentConfig, fig9_contracts
from repro.experiments.config import chosen_scale
from repro.experiments.runner import QCSource, free_qc_source, run_simulation
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.workload.traces import Trace

from .events import CATEGORIES
from .export import summary_report, write_chrome_trace, write_series_csv
from .hooks import TelemetrySession
from .tracer import DEFAULT_BUFFER_SIZE, TelemetryConfig

#: Figures whose workload configurations ``repro trace figures`` replays.
TRACEABLE_FIGS = (1, 5, 6, 7, 8, 9, 10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one instrumented simulation and export a "
                    "Chrome trace_event JSON (Perfetto-loadable)")
    parser.add_argument("experiment", choices=("figures", "run"),
                        help="'figures' replays a figure's workload "
                             "configuration; 'run' is the plain "
                             "balanced-QC single run")
    parser.add_argument("--fig", type=int, default=8,
                        choices=TRACEABLE_FIGS,
                        help="which figure's workload to trace "
                             "(default: 8)")
    parser.add_argument("--policy", default="QUTS",
                        help="scheduling policy (FIFO/UH/QH/QUTS/...)")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation master seed (default: the "
                             "experiment config's run seed)")
    parser.add_argument("--scale", default=None,
                        choices=("smoke", "standard", "full"),
                        help="workload scale (default: $REPRO_SCALE or "
                             "'smoke' — traces are verbose)")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace output path "
                             "(default: trace.json)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="also dump the metrics registry's time "
                             "series as CSV")
    parser.add_argument("--summary", action="store_true",
                        help="print a terminal summary of the trace")
    parser.add_argument("--buffer", type=int, default=DEFAULT_BUFFER_SIZE,
                        help="trace ring-buffer capacity in records "
                             f"(default: {DEFAULT_BUFFER_SIZE}; oldest "
                             "records are evicted beyond it)")
    parser.add_argument("--categories", default=None,
                        help="comma-separated category filter "
                             f"(subset of {sorted(CATEGORIES)}; "
                             "default: all)")
    return parser


def _qc_source(fig: int, trace: Trace) -> QCSource:
    """The figure's contract mix (mirrors the figure drivers)."""
    if fig == 1:
        return free_qc_source()  # Figure 1 is the no-QC triangle
    if fig in (9, 10):
        # The flip-flopping preference phases that drive ρ adaptation.
        return fig9_contracts(trace.duration_ms)
    return QCFactory.balanced()


def _parse_categories(raw: str | None) -> tuple[str, ...]:
    if raw is None:
        return tuple(sorted(CATEGORIES))
    wanted = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = wanted - CATEGORIES
    if unknown:
        raise SystemExit(f"unknown trace categories {sorted(unknown)}; "
                         f"choose from {sorted(CATEGORIES)}")
    if not wanted:
        raise SystemExit("--categories must name at least one category")
    return tuple(sorted(wanted))


def main(argv: typing.Sequence[str]) -> int:
    args = build_parser().parse_args(list(argv))
    scale = args.scale or os.environ.get("REPRO_SCALE") or "smoke"
    config = ExperimentConfig(scale=chosen_scale(scale))
    seed = config.run_seed if args.seed is None else args.seed
    trace = config.trace()
    fig = args.fig if args.experiment == "figures" else 8
    telemetry = TelemetryConfig(categories=_parse_categories(args.categories),
                                buffer_size=args.buffer)

    result = run_simulation(make_scheduler(args.policy), trace,
                            _qc_source(fig, trace), master_seed=seed,
                            telemetry=telemetry)
    session = typing.cast(TelemetrySession, result.telemetry)
    tracer = session.tracer

    metadata = {
        "experiment": args.experiment,
        "fig": fig,
        "policy": result.scheduler_name,
        "scale": config.scale,
        "seed": seed,
        "trace": trace.name,
        "total_percent": result.total_percent,
        "qos_percent": result.qos_percent,
        "qod_percent": result.qod_percent,
    }
    write_chrome_trace(tracer, args.out, metadata=metadata)
    dropped = (f", {tracer.dropped} evicted (raise --buffer)"
               if tracer.dropped else "")
    print(f"wrote {args.out} ({len(tracer)} records{dropped}) — "
          f"load it at https://ui.perfetto.dev")
    if args.csv is not None:
        write_series_csv(session.registry, args.csv)
        print(f"wrote {args.csv}")
    if args.summary:
        print()
        print(summary_report(tracer, session.registry))
    return 0
