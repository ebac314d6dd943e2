#!/usr/bin/env python
"""Static-analysis throughput benchmark: cold analysis vs cache hits.

Analyzes every registered workload (built at pinned parameters) cold
(``use_cache=False``, the full vector-clock + footprint pipeline) and warm
(a fingerprint-keyed cache hit), in interleaved pairs: one cold analysis,
then a batch of warm lookups, :data:`PAIRS` times. Each pair's warm/cold
speedup is measured within milliseconds, so a machine whose speed drifts
between seconds moves both legs alike; the reported speedup is the median
of the per-pair ratios. Reports the median ms per cold analysis and µs per
warm lookup too. Raw rates are machine-dependent; the committed
``BENCH_analysis.json`` pins the *ratios* and ``--check`` fails on >25%
regression — a cache that stops hitting (or a fingerprint that became as
slow as the analysis it guards) shows up as a collapsed ratio on any
machine.

Usage:
    python benchmarks/bench_analysis.py --out BENCH_analysis.json
    python benchmarks/bench_analysis.py --check BENCH_analysis.json
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from bench_common import check_speedups, load_report, write_report

#: Pinned build parameters — match tests/analysis/baselines/regen.py.
NUM_GPUS = 4
SCALE = 0.25
ITERATIONS = 2

#: Interleaved (cold, warm) pairs per workload.
PAIRS = 41

#: Warm lookups timed per pair: one takes microseconds, too short to time
#: alone against the clock's own overhead.
WARM_BATCH = 100


def bench_workload(name: str) -> dict:
    from repro.analysis import analyze_program, clear_cache
    from repro.workloads.registry import WORKLOADS

    program = WORKLOADS[name].build(NUM_GPUS, scale=SCALE, iterations=ITERATIONS)

    def cold():
        clear_cache()
        return analyze_program(program)

    cold()  # untimed warm-up
    cold_ns, warm_ns, ratios = [], [], []
    for _ in range(PAIRS):
        start = time.perf_counter_ns()
        diagnostics = cold()  # leaves the cache primed for the warm leg
        middle = time.perf_counter_ns()
        for _ in range(WARM_BATCH):
            analyze_program(program)
        end = time.perf_counter_ns()
        cold_ns.append(middle - start)
        warm_ns.append((end - middle) / WARM_BATCH)
        ratios.append(cold_ns[-1] / warm_ns[-1])

    return {
        "structure": "analysis",
        "op": name,
        "ms_cold": round(statistics.median(cold_ns) / 1e6, 3),
        "us_cached": round(statistics.median(warm_ns) / 1e3, 2),
        "diagnostics": len(diagnostics),
        "speedup": round(statistics.median(ratios), 2),
    }


def main(argv=None) -> int:
    from repro.workloads.registry import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write BENCH_analysis.json here")
    parser.add_argument("--check", default=None,
                        help="compare against a committed BENCH_analysis.json; "
                             "exit 1 on >25%% speedup regression")
    args = parser.parse_args(argv)

    results = [bench_workload(name) for name in sorted(WORKLOADS)]
    for row in results:
        print(f"{row['op']:>12}  {row['ms_cold']:>8.3f} ms cold  "
              f"{row['us_cached']:>7.2f} us cached  "
              f"{row['speedup']:>8.1f}x  ({row['diagnostics']} diag)")

    ratios = [row["speedup"] for row in results]
    summary = {
        "rows": len(results),
        "min_speedup": min(ratios),
        "max_speedup": max(ratios),
    }
    config = {"num_gpus": NUM_GPUS, "scale": SCALE, "iterations": ITERATIONS}
    if args.out:
        write_report(args.out, "analysis", results, summary, config)
    if args.check:
        baseline = load_report(args.check)
        print(f"checking against {args.check} (model {baseline['model_version']}):")
        regressions = check_speedups(baseline, results, ("structure", "op"),
                                     tolerance=0.25)
        if regressions:
            print(f"FAIL: {regressions} row(s) regressed >25% vs baseline")
            return 1
        print("PASS: no speedup regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
