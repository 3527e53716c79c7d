"""``repro sanitize``: the simsan harness over real experiment cells.

This is the operational entry point of the determinism sanitizer
(:mod:`repro.sim.sanitizer`).  For each requested experiment scenario it
runs three checks:

1. **Race mode** — the scenario under a tracking :class:`Sanitizer`:
   same-``(time, priority)`` events with conflicting accesses to shared
   state (database cells, scheduler queue/ρ) that were ordered only by
   the eid tie-break become findings.
2. **Perturbation mode** — the scenario re-run with bijectively permuted
   eids (``salt=1..N``).  A clean program is invariant to the tie-break
   permutation; a fingerprint mismatch against the unperturbed baseline
   is a finding, localised to the first diverging dispatch by a
   trace-recording replay.
3. **Static pass** — the call-graph-aware determinism rules
   (``no-entropy-taint``, ``no-set-iteration``) over ``src/``, unless
   ``--skip-static``.

``--planted-bug {order,set-iter}`` runs the corresponding *meta-test*:
it injects a known nondeterminism bug and exits 0 only if the sanitizer
reports it at the expected location — proving the oracle can fail
before trusting its silence (the same contract as ``repro chaos
--planted-bug``).

Exit codes match ``repro lint``: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import pickle
import sys
import typing

from repro.analysis.core import (EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                                 Finding, LintConfig, SourceModule,
                                 apply_rules, find_project_root,
                                 lint_paths, render_json, render_sarif,
                                 render_text)
from repro.analysis.rules import EntropyTaintRule, SetIterationRule
from repro.db.transactions import Update
from repro.experiments.config import (ExperimentConfig, SCALES,
                                      chosen_scale)
from repro.experiments.figures import fig9_contracts
from repro.experiments.runner import QCSource, run_simulation
from repro.metrics.results import SimulationResult
from repro.qc.generator import QCFactory
from repro.scheduling import QUTSScheduler, make_scheduler
from repro.scheduling.base import Scheduler
from repro.sim import Environment
from repro.sim.process import ProcessGenerator
from repro.sim.sanitizer import RaceFinding, Sanitizer
from repro.workload.traces import Trace

__all__ = ["DivergenceFinding", "check_perturbation", "check_races",
           "main", "result_fingerprint", "sanitize_scenarios"]

EXPERIMENT_NAMES = ("fig5", "fig9")
DEFAULT_POLICIES = ("QH", "QUTS")

#: Findings rendered through the shared reporters use these rule ids.
RACE_RULE_ID = "sim-order-race"
DIVERGENCE_RULE_ID = "sim-tiebreak-divergence"
STATIC_RULE_IDS = ("no-entropy-taint", "no-set-iteration")

#: Where divergence findings anchor: they name a whole-run property,
#: not a source line, so they point at this harness.
_HARNESS_PATH = "src/repro/experiments/sanitize.py"


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
ScenarioBuild = typing.Callable[[], tuple[Scheduler, Trace, QCSource]]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One experiment cell; ``build`` returns *fresh* run components
    (schedulers are stateful once bound, so every run rebuilds)."""

    name: str
    build: ScenarioBuild


def sanitize_scenarios(config: ExperimentConfig,
                       experiments: typing.Sequence[str],
                       policies: typing.Sequence[str]) -> list[Scenario]:
    """The scenario list for ``experiments``: fig5 (the paper's trace
    under each requested policy with the balanced §5.1.1 QC mix) and
    fig9 (QUTS under the flip-flopping preference phases)."""
    trace = config.trace()
    scenarios: list[Scenario] = []
    if "fig5" in experiments:
        for policy in policies:
            def build(policy: str = policy) \
                    -> tuple[Scheduler, Trace, QCSource]:
                return (make_scheduler(policy), trace,
                        QCFactory.balanced())
            scenarios.append(Scenario(f"fig5/{policy}", build))
    if "fig9" in experiments:
        def build_fig9() -> tuple[Scheduler, Trace, QCSource]:
            return (QUTSScheduler(), trace,
                    fig9_contracts(trace.duration_ms))
        scenarios.append(Scenario("fig9/flip-flop", build_fig9))
    return scenarios


# ----------------------------------------------------------------------
# Fingerprints and findings
# ----------------------------------------------------------------------
def result_fingerprint(result: SimulationResult) -> bytes:
    """A byte-stable digest of everything a run reports.

    Two runs are "the same experiment outcome" iff their fingerprints
    are equal: scheduler, profit percentages, QoS/QoD aggregates,
    outcome counters, and (for QUTS) the full ρ time series.
    """
    rho = (sorted(result.rho_series.items())
           if result.rho_series is not None else None)
    payload = (result.scheduler_name, result.duration,
               result.qos_percent, result.qod_percent,
               result.total_percent, result.mean_response_time,
               result.mean_staleness,
               tuple(sorted(result.counters.items())), rho)
    return pickle.dumps(payload)


@dataclasses.dataclass(frozen=True)
class DivergenceFinding:
    """A perturbed run produced a different result than the baseline."""

    scenario: str
    salt: int
    #: index of the first diverging dispatch in the event trace
    index: int
    baseline: tuple[float, int, str] | None
    perturbed: tuple[float, int, str] | None

    @staticmethod
    def _describe(entry: tuple[float, int, str] | None) -> str:
        if entry is None:
            return "<run ended>"
        time, priority, label = entry
        return f"'{label}' at t={time:g}ms (priority {priority})"

    def format(self) -> str:
        return (f"sim-tiebreak-divergence[{self.scenario}] salt="
                f"{self.salt}: results change under eid permutation; "
                f"first diverging dispatch is #{self.index} — baseline "
                f"{self._describe(self.baseline)} vs perturbed "
                f"{self._describe(self.perturbed)}")

    def to_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# The three checks
# ----------------------------------------------------------------------
def check_races(scenario: Scenario,
                config: ExperimentConfig) -> tuple[list[RaceFinding],
                                                   int]:
    """Run ``scenario`` in race mode; findings plus events dispatched."""
    sanitizer = Sanitizer(track_state=True)
    scheduler, trace, qc_source = scenario.build()
    run_simulation(scheduler, trace, qc_source,
                   master_seed=config.run_seed, sanitizer=sanitizer)
    return sanitizer.findings, sanitizer.events_seen


def check_perturbation(scenario: Scenario, config: ExperimentConfig,
                       salts: typing.Sequence[int]
                       ) -> list[DivergenceFinding]:
    """Diff ``scenario`` fingerprints across eid-permutation salts.

    On a mismatch, both runs are replayed with ``record_trace=True``
    and the first diverging dispatch pair names the finding.
    """
    def run(salt: int | None, record_trace: bool = False
            ) -> tuple[bytes, list[tuple[float, int, str]]]:
        sanitizer = Sanitizer(track_state=False, salt=salt,
                              record_trace=record_trace)
        scheduler, trace, qc_source = scenario.build()
        result = run_simulation(scheduler, trace, qc_source,
                                master_seed=config.run_seed,
                                sanitizer=sanitizer)
        return result_fingerprint(result), sanitizer.trace

    baseline_fp, _ = run(None)
    findings: list[DivergenceFinding] = []
    for salt in salts:
        salted_fp, _ = run(salt)
        if salted_fp == baseline_fp:
            continue
        _, baseline_trace = run(None, record_trace=True)
        _, salted_trace = run(salt, record_trace=True)
        index = next(
            (i for i, (a, b) in enumerate(zip(baseline_trace,
                                              salted_trace))
             if a != b),
            min(len(baseline_trace), len(salted_trace)))
        findings.append(DivergenceFinding(
            scenario=scenario.name, salt=salt, index=index,
            baseline=(baseline_trace[index]
                      if index < len(baseline_trace) else None),
            perturbed=(salted_trace[index]
                       if index < len(salted_trace) else None)))
    return findings


def static_findings(root: pathlib.Path) -> list[Finding]:
    """The simsan static layer: the two call-graph determinism rules
    over ``src/`` (the full ruleset stays with ``repro lint``)."""
    config = dataclasses.replace(LintConfig.load(root),
                                 select=STATIC_RULE_IDS)
    return lint_paths([root / "src"], config=config, root=root)


def _relativize(root: pathlib.Path, path: str) -> str:
    try:
        return pathlib.Path(path).resolve() \
            .relative_to(root.resolve()).as_posix()
    except ValueError:
        return pathlib.PurePosixPath(path).as_posix()


def dynamic_findings(root: pathlib.Path,
                     races: typing.Sequence[tuple[str, RaceFinding]],
                     divergences: typing.Sequence[DivergenceFinding]
                     ) -> list[Finding]:
    """Convert sanitizer findings into reporter-ready :class:`Finding`
    records (text/JSON/SARIF all share the lint reporters)."""
    findings: list[Finding] = []
    for scenario_name, race in races:
        findings.append(Finding(
            _relativize(root, race.first.path), race.first.line, 1,
            RACE_RULE_ID, f"[{scenario_name}] {race.format()}"))
    for divergence in divergences:
        findings.append(Finding(_HARNESS_PATH, 1, 1,
                                DIVERGENCE_RULE_ID, divergence.format()))
    return findings


# ----------------------------------------------------------------------
# Planted-bug meta-tests
# ----------------------------------------------------------------------
def planted_order_findings() -> list[RaceFinding]:
    """A deliberate same-timestamp order dependence.

    Two processes sleep the same simulated delay and then both write
    item ``PLANTED`` — the committed value is whichever ran second,
    i.e. pure eid tie-break.  The race detector must flag it.
    """
    env = Environment()
    sanitizer = Sanitizer(track_state=True)
    sanitizer.install(env)
    database = sanitizer.tracked_database()

    def writer(value: float) -> ProcessGenerator:
        yield env.timeout(5.0)
        database.register_update(
            Update(env.now, 1.0, "PLANTED", value=value), env.now)

    env.process(writer(1.0), name="planted-a")
    env.process(writer(2.0), name="planted-b")
    env.run(until=20.0)
    sanitizer.finish()
    return sanitizer.findings


#: The planted set-iteration module; the ``for`` sits on line 6.
PLANTED_SET_ITER_SOURCE = """\
members: set[int] = {3, 1, 2}


def drain() -> list[int]:
    out = []
    for member in members:
        out.append(member)
    return out
"""
PLANTED_SET_ITER_LINE = 6


def planted_set_iter_findings() -> list[Finding]:
    """A deliberate set iteration, checked by the static oracle.

    The fixture is synthesised with a ``src/repro``-scoped relpath so
    the library-code-only rule applies, and run through the same rule
    object CI uses — hash order is stable *within* one process, so
    only the static rule can prove this class of bug.
    """
    module = SourceModule(pathlib.Path("planted_setiter.py"),
                          "src/repro/_planted_setiter.py",
                          PLANTED_SET_ITER_SOURCE)
    return apply_rules(module, [SetIterationRule()])


def _planted_main(which: str) -> int:
    if which == "order":
        races = planted_order_findings()
        hits = [race for race in races
                if "db.items[PLANTED]" in race.cells]
        for race in hits:
            print(race.format())
        if hits:
            print("planted-bug order: detected (oracle works)")
            return EXIT_CLEAN
        print("planted-bug order: NOT detected — the race oracle is "
              "broken", file=sys.stderr)
        return EXIT_FINDINGS
    findings = planted_set_iter_findings()
    hits = [finding for finding in findings
            if finding.rule_id == "no-set-iteration"
            and finding.line == PLANTED_SET_ITER_LINE]
    for finding in hits:
        print(finding.format())
    if hits:
        print("planted-bug set-iter: detected (oracle works)")
        return EXIT_CLEAN
    print(f"planted-bug set-iter: NOT detected at line "
          f"{PLANTED_SET_ITER_LINE} — the static oracle is broken",
          file=sys.stderr)
    return EXIT_FINDINGS


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="simsan: run experiments under the determinism "
                    "sanitizer (same-timestamp races, tie-break "
                    "perturbation) plus the static determinism rules")
    # No ``choices=`` here: argparse 3.11 rejects the empty list that
    # ``nargs="*"`` produces when no experiment is named.  Validated in
    # :func:`main`.
    parser.add_argument("experiments", nargs="*", default=None,
                        metavar="{fig5,fig9}",
                        help="experiment cells to sanitize "
                             "(default: all)")
    parser.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                        help="comma-separated fig5 policies "
                             "(default: QH,QUTS)")
    parser.add_argument("--scale", default=None,
                        choices=sorted(SCALES),
                        help="workload scale (default: $REPRO_SCALE or "
                             "standard)")
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed (default: 1)")
    parser.add_argument("--perturb", type=int, default=2,
                        help="number of eid-permutation salts to try "
                             "(default: 2; 0 disables)")
    parser.add_argument("--skip-static", action="store_true",
                        help="skip the static determinism rules")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--out", default=None,
                        help="write the report to this file instead of "
                             "stdout")
    parser.add_argument("--planted-bug", default=None,
                        choices=("order", "set-iter"),
                        help="meta-test: inject this known bug and "
                             "exit 0 only if simsan reports it")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.planted_bug is not None:
        return _planted_main(args.planted_bug)

    try:
        config = ExperimentConfig(scale=chosen_scale(args.scale),
                                  run_seed=args.seed)
        policies = tuple(part.strip()
                         for part in args.policies.split(",")
                         if part.strip())
        experiments = list(dict.fromkeys(args.experiments
                                         or EXPERIMENT_NAMES))
        unknown = [name for name in experiments
                   if name not in EXPERIMENT_NAMES]
        if unknown:
            raise ValueError(f"unknown experiment(s) {unknown}; "
                             f"choose from {list(EXPERIMENT_NAMES)}")
        scenarios = sanitize_scenarios(config, experiments, policies)
    except (ValueError, KeyError) as exc:
        print(f"repro sanitize: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    root = find_project_root(pathlib.Path.cwd())

    summaries: list[str] = []
    races: list[tuple[str, RaceFinding]] = []
    divergences: list[DivergenceFinding] = []
    salts = list(range(1, args.perturb + 1))
    for scenario in scenarios:
        scenario_races, events = check_races(scenario, config)
        races.extend((scenario.name, race) for race in scenario_races)
        scenario_divs = check_perturbation(scenario, config, salts)
        divergences.extend(scenario_divs)
        summaries.append(
            f"{scenario.name}: {events} events, "
            f"{len(scenario_races)} race finding(s), "
            f"{len(scenario_divs)} divergence(s) over "
            f"{len(salts)} salt(s)")

    findings = dynamic_findings(root, races, divergences)
    if not args.skip_static:
        findings.extend(static_findings(root))
    findings.sort()

    if args.format == "json":
        report = render_json(findings)
    elif args.format == "sarif":
        rule_index = {RACE_RULE_ID: ("same-timestamp events with "
                                     "conflicting shared-state access, "
                                     "ordered only by the eid "
                                     "tie-break"),
                      DIVERGENCE_RULE_ID: ("simulation results change "
                                           "under eid tie-break "
                                           "permutation")}
        rule_index.update({rule.rule_id: rule.summary for rule in
                           (EntropyTaintRule, SetIterationRule)})
        report = render_sarif(findings, rule_index, tool_name="simsan")
    else:
        report = "\n".join((*summaries, render_text(findings)))

    if args.out:
        pathlib.Path(args.out).write_text(report + "\n")
    else:
        print(report)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
