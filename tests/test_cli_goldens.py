"""CLI outputs pinned by digest, independent of checkout and hash seed.

``cli_goldens.json`` holds the sha256 of the stdout of smoke-scale
``repro`` commands, and of the file a command writes where its argv
names ``{out}`` (the path is replaced by ``{out}`` in stdout before
hashing).  Each runs here in-process, except that a command writing a
file runs in a fresh subprocess: the file carries transaction ids,
which count from the start of the process.  ``fig9`` runs once more in
a subprocess with another ``PYTHONHASHSEED`` and another working
directory.  Entries marked ``"ci_only"`` are too slow for this suite:
a step of their CI job checks them with ``tests/check_cli_golden.py``.
A change that alters one of these outputs on purpose updates its
digest in the same diff and says why in ``CHANGES.md``.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

GOLDENS = json.loads(
    pathlib.Path(__file__).with_name("cli_goldens.json").read_text())
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(
    name for name, golden in GOLDENS.items() if not golden.get("ci_only")))
def test_stdout_matches_its_digest(name, capsys, tmp_path):
    golden = GOLDENS[name]
    out = str(tmp_path / "out")
    argv = [out if arg == "{out}" else arg for arg in golden["argv"]]
    if "out_sha256" in golden:
        stdout = run_cli(argv, tmp_path).decode()
        assert (hashlib.sha256(pathlib.Path(out).read_bytes()).hexdigest()
                == golden["out_sha256"])
    else:
        assert main(argv) == 0
        stdout = capsys.readouterr().out
    assert digest(stdout.replace(out, "{out}")) == golden["stdout_sha256"]


def run_cli(argv, cwd, **env):
    """stdout of ``python -m repro.cli *argv`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    env.pop("REPRO_SCALE", None)
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          cwd=cwd, env=env, capture_output=True,
                          check=True).stdout


def test_fig9_digest_holds_across_hash_seed_and_cwd(tmp_path):
    golden = GOLDENS["fig9"]
    stdout = run_cli(golden["argv"], tmp_path, PYTHONHASHSEED="123")
    assert hashlib.sha256(stdout).hexdigest() == golden["stdout_sha256"]
