"""CLI outputs pinned by digest, independent of checkout and hash seed.

``cli_goldens.json`` holds the sha256 of the stdout of smoke-scale
``repro`` commands.  Each runs here in-process; ``fig9`` runs once more
in a subprocess with another ``PYTHONHASHSEED`` and another working
directory.  A change that alters one of these outputs on purpose
updates its digest in the same diff and says why in ``CHANGES.md``.
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


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_matches_its_digest(name, capsys):
    golden = GOLDENS[name]
    assert main(golden["argv"]) == 0
    assert digest(capsys.readouterr().out) == golden["stdout_sha256"]


def test_fig9_digest_holds_across_hash_seed_and_cwd(tmp_path):
    golden = GOLDENS["fig9"]
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=str(SRC))
    env.pop("REPRO_SCALE", None)
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *golden["argv"]],
        cwd=tmp_path, env=env, capture_output=True, check=True)
    assert (hashlib.sha256(done.stdout).hexdigest()
            == golden["stdout_sha256"])
