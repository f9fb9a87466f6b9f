"""Show that the traced run's counts repeat exactly for a seed.

Runs ``run.py --trace 1`` twice with the same workload and seed and compares
every count metric (unit ``count`` or ``B``: calls, columns, the largest
lstsq size, bytes).  Prints each differing metric and exits 1 if any
differs.  Run from the repository root:

    python3 perfbench/same_counts.py --workload trajectories --seed 1
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = ("count", "B")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], capture_output=True, text=True, check=True,
        timeout=600)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = [k for k in first if first[k] != second[k]]
    for k in differ:
        print(f"{k}: {first[k]} != {second[k]}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of "
          f"{len(first)} counts identical across two traced runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
