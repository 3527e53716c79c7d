"""Check ``repro`` commands against their ``cli_goldens.json`` digests.

Usage, from the project root::

    PYTHONPATH=src python tests/check_cli_golden.py NAME [NAME ...]

Each named entry's argv runs as ``python -m repro.cli`` in a fresh
process; the exit status is 1 if any stdout sha256 differs from its
pin.  CI runs the entries marked ``"ci_only"`` this way, inside the job
that already exercises the command.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

GOLDENS = json.loads(
    pathlib.Path(__file__).with_name("cli_goldens.json").read_text())


def main(names):
    failed = 0
    for name in names:
        golden = GOLDENS[name]
        stdout = subprocess.run(
            [sys.executable, "-m", "repro.cli", *golden["argv"]],
            capture_output=True, check=True).stdout
        got = hashlib.sha256(stdout).hexdigest()
        ok = got == golden["stdout_sha256"]
        failed += not ok
        print(f"{name}: {'ok' if ok else 'DIGEST CHANGED ' + got}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
