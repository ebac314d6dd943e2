#!/usr/bin/env python
"""Per-structure microbenchmarks for the GPS hardware models.

Isolates each structure on the replay hot path — remote write queue,
GPS-TLB, SM coalescer, GPS page table, subscription manager, the runtime's
page bookkeeping, and the warm-L2 hit-rate kernel — and reports
ns/operation plus the structure's own rate metrics (queue hit rate, TLB hit
rate, coalescer merge rate, L2 hit rate).
Structures with both a scalar and a batched kernel report the speedup; the
committed ``BENCH_structures.json`` pins those ratios and ``--check`` fails
on >25% regression (microbenches are noisier than the end-to-end replay
bench, whose gate is the tight one).

Usage:
    python benchmarks/bench_structures.py --out BENCH_structures.json
    python benchmarks/bench_structures.py --check BENCH_structures.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from bench_common import check_speedups, load_report, measure, write_report

#: Event count per timed pass; large enough that per-pass setup is noise.
N_EVENTS = 65536


def _rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _row(structure: str, op: str, ns_vector: float, ns_scalar: "float | None",
         **extra) -> dict:
    row = {"structure": structure, "op": op, "ns_per_op_vector": round(ns_vector, 1)}
    if ns_scalar is not None:
        row["ns_per_op_scalar"] = round(ns_scalar, 1)
        row["speedup"] = round(ns_scalar / ns_vector, 2) if ns_vector else 0.0
    row.update(extra)
    return row


def bench_write_queue() -> list[dict]:
    from repro.config import default_system
    from repro.core.write_queue import RemoteWriteQueue

    rng = _rng()
    cfg = default_system(4).gps
    out = []
    for label, lines in (
        # Streaming: every line distinct -> pure-miss fast path.
        ("stream", np.arange(N_EVENTS, dtype=np.int64)),
        # Reuse: hot working set just above capacity -> real coalescing.
        ("reuse", rng.integers(0, 48, size=N_EVENTS).astype(np.int64)),
    ):
        pays = rng.choice([4, 16, 64, 128], size=N_EVENTS).astype(np.int32)
        queues = {"vector": RemoteWriteQueue(cfg), "scalar": RemoteWriteQueue(cfg)}

        def vec_pass():
            queues["vector"].process_stream_batch(lines, pays)

        def scalar_pass():
            out_entries: list = []
            push = queues["scalar"]._push_one
            for line, nbytes in zip(lines.tolist(), pays.tolist()):
                push(line, nbytes, out_entries)

        vec_reps, vec_t = measure(vec_pass, min_time=0.4)
        scalar_reps, scalar_t = measure(scalar_pass, min_time=0.4, max_reps=5)
        stats = queues["vector"].stats
        out.append(_row(
            "write_queue", f"process_stream/{label}",
            vec_t / vec_reps / N_EVENTS * 1e9,
            scalar_t / scalar_reps / N_EVENTS * 1e9,
            hit_rate=round(stats.hit_rate, 4),
            bandwidth_reduction=round(stats.bandwidth_reduction, 4),
        ))
    return out


def bench_gps_tlb() -> list[dict]:
    from repro.config import default_system
    from repro.core.gps_page_table import GPSPageTable
    from repro.core.gps_tlb import GPSTLB

    rng = _rng()
    cfg = default_system(4).gps
    table = GPSPageTable(cfg, num_gpus=4)
    pages = 4096
    for vpn in range(pages):
        for gpu in range(4):
            table.install_replica(vpn, gpu, vpn * 4 + gpu)
    # Page-run sequence: random pages, short same-page runs (drain order).
    heads = rng.integers(0, pages, size=N_EVENTS // 8).astype(np.int64)
    run_len = np.full(heads.shape[0], 8, dtype=np.int64)
    total = int(run_len.sum())
    tlbs = {"vector": GPSTLB(cfg, table), "scalar": GPSTLB(cfg, table)}
    head_list = heads.tolist()

    def vec_pass():
        tlbs["vector"].translate_batch(head_list, total)

    def scalar_pass():
        translate = tlbs["scalar"].translate_run
        for vpn in head_list:
            translate(vpn, 8)

    vec_reps, vec_t = measure(vec_pass, min_time=0.4)
    scalar_reps, scalar_t = measure(scalar_pass, min_time=0.4, max_reps=20)
    return [_row(
        "gps_tlb", "translate",
        vec_t / vec_reps / total * 1e9,
        scalar_t / scalar_reps / total * 1e9,
        hit_rate=round(tlbs["vector"].stats.hit_rate, 4),
    )]


def bench_sm_coalescer() -> list[dict]:
    from repro.gpu.sm_coalescer import CoalescerStats, sm_coalesce
    from repro.trace.expand import LineStream

    rng = _rng()
    # Strided pattern: runs of 4 identical lines, the coalescer's bread and butter.
    lines = np.repeat(rng.integers(0, N_EVENTS, size=N_EVENTS // 4), 4).astype(np.int64)
    stream = LineStream(lines, np.full(N_EVENTS, 32, dtype=np.int32))
    stats = CoalescerStats()

    def one_pass():
        sm_coalesce(stream, stats)

    reps, elapsed = measure(one_pass)
    return [_row(
        "sm_coalescer", "coalesce",
        elapsed / reps / N_EVENTS * 1e9, None,
        merge_rate=round(stats.merge_rate, 4),
    )]


def bench_gps_page_table() -> list[dict]:
    from repro.config import default_system
    from repro.core.gps_page_table import GPSPageTable

    rng = _rng()
    cfg = default_system(4).gps
    pages = 8192
    vpns = np.arange(pages, dtype=np.int64)
    frames = np.arange(pages, dtype=np.int64)

    def install_pass():
        table = GPSPageTable(cfg, num_gpus=4)
        for gpu in range(4):
            table.install_replicas(vpns, gpu, frames)

    reps, elapsed = measure(install_pass)
    install_ns = elapsed / reps / (pages * 4) * 1e9

    table = GPSPageTable(cfg, num_gpus=4)
    for gpu in range(4):
        table.install_replicas(vpns, gpu, frames)
    lookup_vpns = rng.integers(0, pages, size=N_EVENTS // 8).tolist()

    def lookup_batch_pass():
        table.lookup_batch(lookup_vpns, len(lookup_vpns))

    def lookup_scalar_pass():
        lookup = table.lookup
        for vpn in lookup_vpns:
            lookup(vpn)

    vec_reps, vec_t = measure(lookup_batch_pass, min_time=0.4)
    scalar_reps, scalar_t = measure(lookup_scalar_pass, min_time=0.4, max_reps=50)
    n = len(lookup_vpns)
    return [
        _row("gps_page_table", "install_replicas", install_ns, None),
        _row("gps_page_table", "lookup",
             vec_t / vec_reps / n * 1e9, scalar_t / scalar_reps / n * 1e9),
    ]


def bench_subscription() -> list[dict]:
    from repro.core.subscription import SubscriptionManager

    rng = _rng()
    manager = SubscriptionManager(num_gpus=4)
    pages = 8192
    manager.register_all_to_all(range(pages))
    for vpn in range(0, pages, 2):  # half the pages drop to one subscriber
        for gpu in (1, 2, 3):
            manager.unsubscribe(gpu, vpn)
    manager.demote_single_subscriber_pages()
    query = rng.integers(0, pages, size=N_EVENTS // 4).astype(np.int64)

    def mask_pass():
        manager.multi_subscriber_mask(query)

    def scalar_pass():
        subscribers = manager.subscribers
        demoted = manager.is_demoted
        for vpn in query.tolist():
            _keep = len(subscribers(vpn)) > 1 and not demoted(vpn)

    vec_reps, vec_t = measure(mask_pass, min_time=0.4)
    scalar_reps, scalar_t = measure(scalar_pass, min_time=0.4, max_reps=20)
    n = query.shape[0]
    return [_row(
        "subscription", "multi_subscriber_mask",
        vec_t / vec_reps / n * 1e9, scalar_t / scalar_reps / n * 1e9,
    )]


def bench_runtime_pages() -> list[dict]:
    from repro.config import default_system
    from repro.core.runtime import GPSRuntime

    config = default_system(4)
    pages = 2048
    size = pages * config.gps.page_size

    def alloc_free_pass():
        runtime = GPSRuntime(config)
        runtime.malloc_gps("buf", size)
        runtime.free("buf")

    reps, elapsed = measure(alloc_free_pass)
    # One pass allocates and frees `pages` pages with 4 replicas each.
    return [_row(
        "runtime", "malloc_gps+free",
        elapsed / reps / pages * 1e9, None,
    )]


def bench_l2_warm() -> list[dict]:
    from repro.cache.cache import Cache, set_count
    from repro.cache.warm_lru import warm_lru_hits
    from repro.config import default_system
    from repro.system.analysis import ProgramAnalysis
    from repro.workloads import get_workload

    config = default_system(1)
    gpu = config.gpu
    num_sets = set_count(gpu.l2_bytes, gpu.cache_block, gpu.l2_assoc)
    # Figure 8's one-GPU ALS baseline: its longest kernel read stream
    # overflows most L2 sets, so the closed-form cold pass and the lockstep
    # warm pass both run.
    program = get_workload("als").build(1, scale=0.15, iterations=2)
    analysis = ProgramAnalysis(program, config)
    streams = []
    for phase in program.phases:
        for kernel in phase.kernels:
            reads = analysis.footprint(kernel).reads
            if reads:
                streams.append(np.concatenate([analysis.stream(fp.access).lines for fp in reads]))
    fig08 = max(streams, key=len)
    # Adversarial: every line maps to one set, twice as many lines as ways.
    one_set = _rng().integers(0, 2 * gpu.l2_assoc, size=N_EVENTS).astype(np.int64) * num_sets

    out = []
    for label, lines in (("fig08-als-g1", fig08), ("one-set", one_set)):
        def vec_pass():
            return warm_lru_hits(lines, num_sets, gpu.l2_assoc)

        def scalar_pass():
            cache = Cache(gpu.l2_bytes, gpu.cache_block, gpu.l2_assoc)
            cache.simulate_stream(lines)
            return cache.simulate_stream(lines).hits

        hits = vec_pass()
        if hits != scalar_pass():
            raise AssertionError(f"l2_warm/{label}: vector and scalar hit counts differ")
        vec_reps, vec_t = measure(vec_pass, min_time=0.4)
        scalar_reps, scalar_t = measure(scalar_pass, min_time=1.0, max_reps=10)
        out.append(_row(
            "l2_warm", f"warm_hits/{label}",
            vec_t / vec_reps / lines.shape[0] * 1e9,
            scalar_t / scalar_reps / lines.shape[0] * 1e9,
            lines=int(lines.shape[0]),
            hit_rate=round(hits / lines.shape[0], 4),
        ))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write BENCH_structures.json here")
    parser.add_argument("--check", default=None,
                        help="compare against a committed BENCH_structures.json; "
                             "exit 1 on >25%% speedup regression")
    args = parser.parse_args(argv)

    results = []
    for bench in (bench_write_queue, bench_gps_tlb, bench_sm_coalescer,
                  bench_gps_page_table, bench_subscription, bench_runtime_pages,
                  bench_l2_warm):
        results.extend(bench())
    for row in results:
        speed = f"  {row['speedup']:>7.1f}x vs scalar" if "speedup" in row else ""
        print(f"{row['structure']:>15}.{row['op']:<24} "
              f"{row['ns_per_op_vector']:>8.1f} ns/op{speed}")

    ratios = [row["speedup"] for row in results if "speedup" in row]
    summary = {
        "rows": len(results),
        "min_speedup": min(ratios),
        "max_speedup": max(ratios),
    }
    if args.out:
        write_report(args.out, "structures", results, summary,
                     {"events_per_pass": N_EVENTS})
    if args.check:
        baseline = load_report(args.check)
        print(f"checking against {args.check} (model {baseline['model_version']}):")
        gated = [row for row in results if "speedup" in row]
        regressions = check_speedups(baseline, gated, ("structure", "op"), tolerance=0.25)
        if regressions:
            print(f"FAIL: {regressions} row(s) regressed >25% vs baseline")
            return 1
        print("PASS: no speedup regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
