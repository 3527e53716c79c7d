"""Self-test of the benchmark harness: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths = tests``).  Every workload runs at a
tiny measuring budget, in its own subprocess exactly as the driver
starts it, so what is checked is the command's contract — not the
numbers, which mean nothing at this size.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
DES_NAMES = [name for name in NAMES if not name.startswith("live_")]
#: Measuring budget of the self-test runs (the real one is run_seconds).
TINY_SECONDS = 0.4

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def _command(*args: object) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), *map(str, args)]


@functools.lru_cache(maxsize=None)
def _report(name: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        _command("--workload", name, "--seed", seed,
                 "--seconds", TINY_SECONDS, "--trace", trace),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_contract(report: dict, kind: str) -> None:
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(report["metrics"]) == set(listed)
    for metric, entry in report["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
        assert entry["unit"] == listed[metric]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name: str) -> None:
    report = _report(name, 3, 0)
    _check_contract(report, "end_to_end")
    assert all(entry["value"] > 0 for entry in report["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name: str) -> None:
    _check_contract(_report(name, 3, 1), "per_layer")


def test_every_per_layer_metric_is_fed_by_some_workload() -> None:
    # A listed name that no code emits would read 0 everywhere.
    silent = {m["name"] for m in SPEC["per_layer"]}
    for name in NAMES:
        silent -= {metric for metric, entry
                   in _report(name, 3, 1)["metrics"].items()
                   if entry["value"]}
    # Legitimately zero at this size: nothing fails, is refused or cut
    # off, and the tiny cluster slice crashes with no query in flight.
    assert silent <= {"run.failed_share", "db.admission.rejected",
                      "serve.outcomes.shed", "serve.outcomes.backpressure",
                      "serve.outcomes.superseded",
                      "serve.outcomes.unfinished", "cluster.failovers"}


def test_predicted_zero_cells_hold() -> None:
    for name in NAMES:
        metrics = _report(name, 3, 1)["metrics"]
        if name != "cluster_wal_crash":
            assert metrics["db.wal.append_calls"]["value"] == 0
            assert metrics["db.wal.flush_calls"]["value"] == 0
        if name != "shard_skew_rebalance":
            assert metrics["shard.ring.owner_calls"]["value"] == 0
            assert metrics["shard.router.choose_calls"]["value"] == 0
        if not name.startswith("live_"):
            assert metrics["serve.protocol.decode_calls"]["value"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_inputs(name: str) -> None:
    assert (_report(name, 3, 0)["attempted"]
            != _report(name, 4, 0)["attempted"])


@pytest.mark.parametrize("name", DES_NAMES)
def test_same_seed_gives_identical_fingerprint(name: str) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    prints = [workload.run(workload.setup(seed, TINY_SECONDS)).fingerprint
              for seed in (3, 3, 4)]
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def test_untraced_run_refuses_leftover_wrappers() -> None:
    import run
    import tracing

    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.run_workload("des_uh_deep", 3, TINY_SECONDS, trace=False)
    finally:
        tracer.uninstall()
    assert tracing.installed() == []


def test_stale_pin_fails_instead_of_skipping_the_fingerprint(
        tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch) -> None:
    import run

    pin = tmp_path / "des_uh_deep.json"
    monkeypatch.setattr(run, "_expected_path", lambda name: pin)
    run.run_workload("des_uh_deep", 3, TINY_SECONDS, trace=False, pin=True)
    assert run.run_workload("des_uh_deep", 3, TINY_SECONDS,
                            trace=False)["correct"]
    # Another seed or budget is simply not pinned ...
    assert run.run_workload("des_uh_deep", 4, TINY_SECONDS,
                            trace=False)["correct"]
    # ... but a pin for this seed and budget that no longer describes
    # the workload must not pass for "no pin".
    pinned = json.loads(pin.read_text())
    pin.write_text(json.dumps({**pinned, "config_hash": "0" * 12}))
    report = run.run_workload("des_uh_deep", 3, TINY_SECONDS, trace=False)
    assert not report["correct"]
    assert report["failed"] == report["attempted"]


def test_attribution_check_can_fail(monkeypatch: pytest.MonkeyPatch) -> None:
    import run

    assert run.run_workload("des_uh_deep", 3, TINY_SECONDS,
                            trace=True)["correct"]
    monkeypatch.setattr(run, "MAX_UNATTRIBUTED_SHARE", 0.01)
    assert not run.run_workload("des_uh_deep", 3, TINY_SECONDS,
                                trace=True)["correct"]


def test_full_set_manifest_and_compare(tmp_path: pathlib.Path) -> None:
    def full_set(out: str, seed: int) -> pathlib.Path:
        path = tmp_path / out
        done = subprocess.run(
            _command("--workload", "des_uh_deep", "--workload",
                     "live_steady", "--seed", seed, "--seconds",
                     TINY_SECONDS, "--repeat", 2, "--out", path),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return path

    a, b, other_seed = full_set("a", 3), full_set("b", 3), full_set("c", 4)
    manifest = json.loads(a.read_text())
    assert {"git_sha", "seed", "seconds", "nproc", "platform", "python",
            "repeat", "trace"} <= set(manifest["manifest"])
    entry = manifest["workloads"]["des_uh_deep"]
    assert entry["config_hash"] and entry["correct"]
    assert entry["metrics"]["txns_per_s"]["n"] == 2
    assert len(entry["metrics"]["txns_per_s"]["values"]) == 2

    same = subprocess.run(_command("--compare", a, b),
                          capture_output=True, text=True)
    # Tiny runs are too noisy to be "ok"; the table must still be whole.
    assert same.returncode in (0, 1), same.stdout + same.stderr
    assert same.stdout.count("des_uh_deep") == len(SPEC["end_to_end"])
    exact = [line for line in same.stdout.splitlines()
             if line.startswith("des_uh_deep") and "profit_total_pct" in line]
    assert exact and exact[0].endswith("ok")

    # DES profit is exact: a 1 % drop is a behaviour change, not noise.
    moved = json.loads(b.read_text())
    profit = moved["workloads"]["des_uh_deep"]["metrics"]["profit_total_pct"]
    profit["values"] = [0.99 * value for value in profit["values"]]
    profit["median"] *= 0.99
    (tmp_path / "moved").write_text(json.dumps(moved))
    changed = subprocess.run(_command("--compare", a, tmp_path / "moved"),
                             capture_output=True, text=True)
    assert changed.returncode == 1
    assert any(line.startswith("des_uh_deep") and "profit_total_pct" in line
               and line.endswith("changed")
               for line in changed.stdout.splitlines())

    refused = subprocess.run(_command("--compare", a, other_seed),
                             capture_output=True, text=True)
    assert refused.returncode == 2 and "seed differs" in refused.stdout
    allowed = subprocess.run(
        _command("--compare", a, other_seed, "--ignore", "seed"),
        capture_output=True, text=True)
    assert allowed.returncode in (0, 1)
