"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 bench/spread.py --runs 10 --first-seed 1 [--workload fig08-cold ...]

Runs ``bench/run.py`` once per seed for each workload and prints, per
metric, the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread a metric's regression bound in ``BENCHMARK.json`` must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402


def spread(values: "list[float]") -> "tuple[float, float]":
    """``(median, (q3 - q1) / median)`` of a sample."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"
    ]}
    ok = True
    for workload in args.workload or list(workloads.WORKLOADS):
        values: "dict[str, list[float]]" = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect or failed run", file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, sample in values.items():
            median, share = spread(sample)
            bound = bounds.get(name, 0.0)
            flag = "" if share < bound / 3 else "  (spread above a third of the bound)"
            print(
                f"{workload:<12} {name:<12} median {median:10.4f}  IQR/median {share:6.2%}"
                f"  bound {bound:.0%}{flag}"
            )
            print("    " + " ".join(f"{v:.4g}" for v in sample))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
