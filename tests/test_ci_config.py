"""The CI workflow parses, and every step calls something that exists.

A workflow that is not valid YAML fails silently on the hosting side:
no job runs and nothing reports red.  Parsing it here makes that a
test failure, and so is a ``bench/run.py --workload`` step naming a
workload ``BENCHMARK.json`` does not declare, a step naming a test file
that is gone, or a ``python -m repro.cli`` step naming a subcommand the
CLI no longer accepts; so is an interpreter the ``tests`` job runs that
``test_cost_budget.py``'s allocation ceilings have no row for (the
ruler would skip there, unseen).
"""

import json
import pathlib
import re

import pytest

from repro.cli import main as cli_main
from tests.test_cost_budget import PEAK_BUDGETS

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"


def test_every_job_has_steps():
    jobs = yaml.safe_load(CI.read_text())["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job.get("steps"), f"job {name!r} has no steps"


def test_bench_steps_name_declared_workloads():
    declared = {workload["name"] for workload in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    named = re.findall(r"bench/run\.py\s+--workload\s+(\S+)", CI.read_text())
    assert named
    assert set(named) <= declared


def test_named_test_files_exist():
    # Steps name files from the root (``tests/...``) or after
    # ``cd benchmarks`` (a bare ``test_*.py``).
    named = set(re.findall(r"[\w/]*test_\w+\.py", CI.read_text()))
    assert named
    missing = [name for name in sorted(named)
               if not (ROOT / name).is_file()
               and not (ROOT / "benchmarks" / name).is_file()]
    assert not missing


@pytest.mark.parametrize("word", sorted(set(re.findall(
    r"python -m repro\.cli\s+(?:\\\s+)?(\w+)", CI.read_text()))))
def test_cli_subcommands_accept_help(word, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main([word, "--help"])
    assert exit_info.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_every_ci_only_golden_is_checked_by_a_step():
    # ``test_cli_goldens.py`` skips these entries, so an entry no step
    # names would be checked nowhere.
    goldens = json.loads((ROOT / "tests" / "cli_goldens.json").read_text())
    ci_only = {name for name, golden in goldens.items()
               if golden.get("ci_only")}
    assert ci_only
    checked = set()
    for job in yaml.safe_load(CI.read_text())["jobs"].values():
        for step in job["steps"]:
            checked.update(re.findall(r"check_cli_golden\.py((?:\s+[\w-]+)+)",
                                      step.get("run", "")))
    named = {name for group in checked for name in group.split()}
    assert ci_only <= named, sorted(ci_only - named)


def test_every_tested_python_has_an_allocation_budget():
    versions = yaml.safe_load(CI.read_text())["jobs"]["tests"]["strategy"][
        "matrix"]["python-version"]
    assert versions
    missing = [version for version in versions
               if tuple(map(int, version.split("."))) not in PEAK_BUDGETS]
    assert not missing, missing
