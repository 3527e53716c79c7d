"""The repo's one benchmark command (see ``bench/README.md``).

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this (fresh, single-threaded) process.  Prints
    every metric by name with its unit and, as the last line, one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) that ``BENCHMARK.json`` lists.  Exits non-zero when
    a correctness check fails.

``python3 bench/run.py [--seed N] [--workload NAME ...] [--trace]
[--repeat K] [--out FILE]``
    A full set: every named workload (default: all six) in its own
    subprocess, one after another — nothing runs beside a timed run.
    Writes a manifest (host, commit, seed, config hashes, raw values per
    run) to ``--out``.

``python3 bench/run.py --compare A.json B.json [--ignore FIELD ...]``
    Per workload, each end-to-end metric of B against A and its bound:
    ``ok``, ``worse``, ``unresolved`` when the run-to-run spread is
    wider than the bound, or ``changed`` where the result is exact (DES
    profit and goodput) and differs at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import typing

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The command may name nothing outside bench/, so the program under test
# is found here rather than through PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

import micro  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_hash  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Fields two manifests must share to be comparable.
COMPARABLE = ("seed", "seconds", "trace", "nproc", "platform", "python")
#: ``--compare``'s bounds.  Both sides ran the same inputs on the same
#: host, so these answer to *run-to-run* spread and stay within 10 %;
#: BENCHMARK.json's bounds answer to the driver's spread across seeds
#: (different inputs) and are wider.  Shares of A's median:
RELATIVE_BOUNDS = {"txns_per_s": 0.07, "peak_rss_mb": 0.05, "setup_s": 0.10}
#: In the metric's own unit, live workloads only: on a DES workload the
#: same inputs give the same profit, so any change is a behaviour change.
ABSOLUTE_BOUNDS = {"profit_total_pct": 1.0, "goodput": 0.02}
#: A DES traced pass with more than this share of its time outside every
#: wrapped call is not attributing (measured: 0.41 to 0.56).  Live
#: workloads have no limit: their residual is the idle event loop.
MAX_UNATTRIBUTED_SHARE = 0.70


# ----------------------------------------------------------------------
# One workload, in process
# ----------------------------------------------------------------------
def _expected_path(name: str) -> pathlib.Path:
    return BENCH_DIR / "expected" / f"{name}.json"


def _span_metrics(tracer: typing.Any) -> dict[str, float]:
    """``<span>_s`` (self time) and ``<span>_calls`` for every span."""
    metrics: dict[str, float] = {}
    for span, self_s in tracer.self_s.items():
        metrics[f"{span}_s"] = self_s
        metrics[f"{span}_calls"] = tracer.calls[span]
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pin: bool = False) -> dict[str, typing.Any]:
    """Measure one workload; returns the last-line report."""
    workload = WORKLOADS[name]
    problems: list[str] = []
    # Before anything large is alive: the collector's cost, and so the
    # micro numbers, grow with the heap a workload's inputs occupy.
    micro_metrics = micro.run_micro() if trace else {}

    # The collector stays on inside every clocked region (users pay for
    # it); collecting *between* regions starts each from the same heap,
    # so one pass's garbage is not the next one's peak RSS or pause.
    setup_s = []
    for _ in range(1 if trace else workload.setup_reps):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(seed, seconds)
        setup_s.append(time.perf_counter() - start)

    if leftovers := tracing.installed():
        raise RuntimeError(
            f"wrappers installed in an untraced run: {leftovers}")
    gc.collect()
    first = workload.run(inputs)
    problems.extend(first.problems)
    if first.failed:
        problems.append(f"{first.failed} of {first.attempted} "
                        f"operations have no valid result")

    # Correctness gate: the pinned fingerprint where one applies, else
    # conservation (above) plus the invariant-monitor replay.
    expected_path = _expected_path(name)
    expected = (json.loads(expected_path.read_text())
                if expected_path.exists() else None)
    if pin and first.fingerprint:
        expected_path.parent.mkdir(exist_ok=True)
        expected_path.write_text(json.dumps({
            "seed": seed, "seconds": seconds,
            "config_hash": config_hash(name, seconds),
            "fingerprint": first.fingerprint}, indent=1) + "\n")
    elif expected is not None and (expected["seed"], expected[
            "seconds"]) == (seed, seconds):
        # Never fall back to the weaker checks because the pin went stale.
        if expected["config_hash"] != config_hash(name, seconds):
            problems.append(
                f"stale pin: the workload's configuration changed since "
                f"{expected_path.name} was recorded; re-run with --pin")
        # Through JSON so tuples and lists compare alike.
        elif json.loads(json.dumps(first.fingerprint)) != expected[
                "fingerprint"]:
            problems.append(f"fingerprint differs from {expected_path.name}")
    else:
        problems.extend(workload.audit(inputs))

    if not trace:
        measured = {
            "txns_per_s": first.txns / first.wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_s),
            "profit_total_pct": first.profit_total_pct,
            "goodput": first.goodput,
        }
    else:
        tracer = tracing.SpanTracer()
        gc.collect()
        tracer.install()
        try:
            traced = workload.run(inputs, tracer)
        finally:
            tracer.uninstall()
        if traced.fingerprint != first.fingerprint:
            problems.append("the traced pass changed the result")
        spans = _span_metrics(tracer)
        # Self times add up to the root's child time by construction,
        # so "layers + residual == wall" cannot fail; what can is the
        # wrappers missing the work (a renamed or overridden entry point).
        residual_s = traced.wall_s - traced.spans_s
        if workload.simulated and residual_s > (
                MAX_UNATTRIBUTED_SHARE * traced.wall_s):
            problems.append(
                f"attribution check: {residual_s / traced.wall_s:.0%} of "
                f"the traced region is in no layer's span (limit "
                f"{MAX_UNATTRIBUTED_SHARE:.0%})")
        next_calls = spans["scheduling.next_calls"]
        measured = {
            # Counts and client-side times from the *untraced* pass;
            # span times and call counts from the traced one.
            **first.layer,
            **spans,
            **micro_metrics,
            "sim.events": tracer.counts["sim.events"],
            "sim.run_residual_s": residual_s,
            "scheduling.next_wasted_share": (
                tracer.counts["scheduling.next_wasted"] / next_calls
                if next_calls else 0.0),
            "scheduling.query_depth_max": tracer.counts[
                "scheduling.query_depth_max"],
            "db.locks.conflicts": tracer.counts["db.locks.conflicts"],
            "workload.generate_s": (
                setup_s[0] if workload.simulated else 0.0),
            "run.wall_s": first.wall_s,
            "run.failed_share": first.failed / first.attempted,
            "trace.wall_s": traced.wall_s,
            "trace.overhead_ratio": traced.wall_s / first.wall_s,
            "trace.unattributed_share": residual_s / traced.wall_s,
        }
    # BENCHMARK.json is the list of what is reported: a layer that did no
    # work on this workload reads 0, and a span no metric names is dropped.
    units = {metric["name"]: metric["unit"]
             for metric in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = {metric: measured.get(metric, 0.0) for metric in units}

    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    return {
        "correct": not problems,
        "attempted": first.attempted,
        "failed": first.attempted if problems else 0,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }


# ----------------------------------------------------------------------
# A full set, one subprocess per workload
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(names: list[str], seed: int, seconds: float, trace: bool,
            repeat: int) -> tuple[dict[str, typing.Any], int]:
    """Run ``names`` ``repeat`` times over; returns ``(manifest, code)``."""
    runs: dict[str, list[dict[str, typing.Any]]] = {n: [] for n in names}
    code = 0
    for _ in range(repeat):
        for name in names:
            child = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                raise RuntimeError(
                    f"{name}: no result (exit code {child.returncode})")
            print("\n".join(lines[:-1]), flush=True)
            code = code or child.returncode
            runs[name].append(json.loads(lines[-1]))

    workloads = {}
    for name, reports in runs.items():
        metrics = {}
        for metric, first in reports[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in reports]
            metrics[metric] = {
                "unit": first["unit"], "median": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values),
                "values": values}
        workloads[name] = {
            "config_hash": config_hash(name, seconds),
            "correct": all(r["correct"] for r in reports),
            "attempted": reports[0]["attempted"],
            "failed": max(r["failed"] for r in reports),
            "metrics": metrics,
        }
    manifest = {
        "manifest": {
            "git_sha": _git_sha(), "seed": seed, "seconds": seconds,
            "trace": int(trace), "repeat": repeat,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workloads": workloads,
    }
    return manifest, code


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _iqr(values: list[float]) -> float:
    """Distance between the first and third quartile (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1)


def compare(path_a: str, path_b: str, ignore: list[str]) -> int:
    """Print B against A; returns 1 if any metric is ``worse`` (or, where
    the result is exact, ``changed``)."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    for field in COMPARABLE:
        if field not in ignore and a["manifest"][field] != b[
                "manifest"][field]:
            print(f"refusing to compare: {field} differs "
                  f"({a['manifest'][field]!r} vs {b['manifest'][field]!r}); "
                  f"pass --ignore {field} to compare anyway")
            return 2
    status_code = 0
    print(f"{'workload':<22}{'metric':<18}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>8}  status")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if "config" not in ignore and wa["config_hash"] != wb["config_hash"]:
            print(f"refusing to compare {name}: config hashes differ; "
                  f"pass --ignore config to compare anyway")
            return 2
        for metric in SPEC["end_to_end"]:
            ma = wa["metrics"].get(metric["name"])
            mb = wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            if metric["name"] in RELATIVE_BOUNDS:
                bound, unit = RELATIVE_BOUNDS[metric["name"]], ma["median"]
                show = "%"
            else:
                bound, unit = ABSOLUTE_BOUNDS[metric["name"]], 1.0
                show = "g"
                if WORKLOADS[name].simulated:
                    bound = 0.0
            worse_by = sign * (mb["median"] - ma["median"]) / unit
            all_better = (
                max(mb["values"]) < min(ma["values"])
                if metric["better"] == "lower"
                else min(mb["values"]) > max(ma["values"]))
            if bound == 0.0:
                status = "ok" if ma["values"] == mb["values"] else "changed"
            elif (max(_iqr(ma["values"]), _iqr(mb["values"])) / unit
                    > bound and not all_better):
                status = "unresolved"
            else:
                status = "worse" if worse_by > bound else "ok"
            if status in ("worse", "changed"):
                status_code = 1
            print(f"{name:<22}{metric['name']:<18}{ma['median']:>12.5g}"
                  f"{mb['median']:>12.5g}{worse_by:>+10.2{show}}"
                  f"{bound:>8.2{show}}  {status}")
    return status_code


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed fed to the input generators")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measuring budget; input size scales with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full set only: runs per workload")
    parser.add_argument("--out", help="full set only: manifest JSON path")
    parser.add_argument("--pin", action="store_true",
                        help="one DES workload only: record its result "
                             "fingerprint under bench/expected/")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--ignore", action="append", default=[],
                        choices=COMPARABLE + ("config",),
                        help="--compare: a field allowed to differ")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, ignore=args.ignore)
    if args.workload and len(args.workload) == 1:
        report = run_workload(args.workload[0], args.seed, args.seconds,
                              bool(args.trace), pin=args.pin)
        print(json.dumps(report))
        return 0 if report["correct"] else 1
    manifest, code = run_set(args.workload or names, args.seed,
                             args.seconds, bool(args.trace), args.repeat)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(manifest, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
