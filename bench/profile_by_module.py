"""cProfile one DES workload and print self time by ``repro`` module.

``python3 bench/profile_by_module.py WORKLOAD [--seed N] [--seconds S]``

The check on ``--trace``: an independent attribution of the same timed
region, to compare layer *rankings* with (cProfile taxes every Python
call, so its shares are not the traced run's shares).
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import pathlib
import pstats
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=[
        name for name, w in WORKLOADS.items() if hasattr(w, "replay")])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    trace = workload.setup(args.seed, args.seconds)
    profiler = cProfile.Profile()
    profiler.runcall(workload.replay, trace)

    by_module: dict[str, float] = collections.defaultdict(float)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (filename, _, _), (_, _, self_s, _, _) in stats.items():
        marker = filename.find("/repro/")
        module = (filename[marker + 1:-3].replace("/", ".")
                  if marker >= 0 else "(python / builtins)")
        by_module[module] += self_s
    total = sum(by_module.values())
    print(f"{args.workload} seed {args.seed}: {total:.2f} s under cProfile")
    for module, self_s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        if self_s / total >= 0.005:
            print(f"{self_s / total:7.1%}  {self_s:7.2f} s  {module}")


if __name__ == "__main__":
    main()
