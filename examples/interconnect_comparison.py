#!/usr/bin/env python3
"""Sweep interconnects and GPU counts: where does each paradigm pay off?

Reproduces the flavour of the paper's Figures 12 and 13 on a configurable
subset: every PCIe generation plus NVLink, for 4 and (optionally) 16 GPUs.

Run:  python examples/interconnect_comparison.py [--sixteen]
"""

from __future__ import annotations

import argparse

import repro
from repro.harness.report import format_table, geomean
from repro.harness.runner import SimJob, run_many

APPS = ("jacobi", "pagerank", "ct")
PARADIGMS = ("memcpy", "rdl", "gps", "infinite")
LINKS = ("pcie3", "pcie4", "pcie5", "pcie6", "nvlink2")


def sweep(num_gpus: int, scale: float, iterations: int) -> list:
    """Print the geomean speedup matrix for one GPU count; returns its rows.

    The whole grid is one ``run_many`` call: every (link, paradigm, app)
    job on ``num_gpus`` GPUs plus one single-GPU ``memcpy`` baseline per
    (link, app), each simulated once.
    """

    def job(app: str, paradigm: str, gpus: int, link: str) -> SimJob:
        return SimJob(app, paradigm, gpus, link, scale, iterations)

    jobs = [job(a, p, num_gpus, link) for link in LINKS for p in PARADIGMS for a in APPS]
    jobs += [job(a, "memcpy", 1, link) for link in LINKS for a in APPS]
    times = {j: r.total_time for j, r in zip(jobs, run_many(jobs))}
    rows = []
    for link in LINKS:
        row = [repro.LINKS_BY_NAME[link].name]
        for paradigm in PARADIGMS:
            row.append(geomean([
                times[job(app, "memcpy", 1, link)] / times[job(app, paradigm, num_gpus, link)]
                for app in APPS
            ]))
        rows.append(row)
    print(
        format_table(
            ["interconnect"] + [repro.LABELS[p] for p in PARADIGMS],
            rows,
            title=f"Geomean speedup over 1 GPU ({num_gpus} GPUs, {', '.join(APPS)})",
        )
    )
    print()
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sixteen", action="store_true", help="also sweep a 16-GPU system"
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--iterations", type=int, default=8)
    args = parser.parse_args()

    sweep(4, args.scale, args.iterations)
    if args.sixteen:
        sweep(16, args.scale, args.iterations)
    print("Note how only GPS converts added bandwidth into scaling —")
    print("the paper's Figure 13 observation.")


if __name__ == "__main__":
    main()
