"""The CI workflow parses, and its benchmark steps name real workloads.

A workflow that is not valid YAML fails silently on the hosting side:
no job runs and nothing reports red.  Parsing it here makes that a
test failure, and so is a ``bench/run.py --workload`` step naming a
workload ``BENCHMARK.json`` does not declare.
"""

import json
import pathlib
import re

import pytest

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
