"""Ablations of GPS design choices called out in DESIGN.md.

Three studies beyond the paper's own figures:

* coalescing on/off — how much interconnect traffic the remote write
  queue's combining saves (isolates the Figure 14 mechanism end-to-end);
* watermark policy — the paper drains at capacity-1 to maximise
  coalescing opportunity; draining eagerly (low watermark) loses hits;
* the EQWP L2 capacity effect — the super-linear scaling mechanism of
  section 7.1 (hit rate rises when the per-GPU working set fits in L2).
"""

import dataclasses

from conftest import run_once

import repro
from repro.config import GPSConfig
from repro.core.write_queue import RemoteWriteQueue
from repro.harness.report import format_table
from repro.harness.runner import run_simulation
from repro.system.analysis import get_analysis


def test_ablation_coalescing(benchmark, bench_scale, bench_iterations):
    """GPS with the write queue's combining disabled moves more data."""

    def run():
        out = {}
        for workload in ("ct", "hit", "eqwp"):
            gps = run_simulation(workload, "gps", 4, scale=bench_scale, iterations=bench_iterations)
            nocoal = run_simulation(
                workload, "gps_nocoalesce", 4, scale=bench_scale, iterations=bench_iterations
            )
            out[workload] = {
                "bytes_ratio": nocoal.interconnect_bytes / gps.interconnect_bytes,
                "time_ratio": nocoal.total_time / gps.total_time,
            }
        return out

    result = run_once(benchmark, run)
    rows = [[w, d["bytes_ratio"], d["time_ratio"]] for w, d in result.items()]
    print()
    print(
        format_table(
            ["app", "traffic x", "time x"],
            rows,
            title="Ablation: GPS without write-queue coalescing",
        )
    )
    for workload, d in result.items():
        assert d["bytes_ratio"] > 1.05, workload
        assert d["time_ratio"] >= 0.999, workload


def test_ablation_watermark(benchmark, bench_scale):
    """Draining eagerly (low watermark) forfeits coalescing opportunity."""

    def run():
        config = repro.default_system(4)
        program = repro.get_workload("ct").build(4, scale=bench_scale, iterations=2)
        analysis = get_analysis(program, config)
        kernels = {k: None for k in program.iter_kernels() if k.gpu == 0}
        out = {}
        for watermark in (32, 128, 511):
            queue = RemoteWriteQueue(
                dataclasses.replace(GPSConfig(), high_watermark=watermark)
            )
            for kernel in kernels:
                for _, stream, atomic in analysis.store_streams(kernel):
                    queue.process_stream_batch(stream.lines, stream.bytes_per_txn, atomic=atomic)
                queue.flush_batch()
            out[watermark] = queue.stats.hit_rate
        return out

    result = run_once(benchmark, run)
    rows = [[w, 100 * r] for w, r in result.items()]
    print()
    print(
        format_table(
            ["watermark", "hit rate %"],
            rows,
            title="Ablation: CT write-queue hit rate vs drain watermark",
        )
    )
    series = [result[w] for w in (32, 128, 511)]
    assert series == sorted(series)
    assert series[-1] > series[0]


def test_ablation_eqwp_l2_capacity(benchmark, bench_scale):
    """EQWP's super-linear scaling comes from the L2 capacity effect.

    The effect requires the single-GPU working set to exceed the 6 MiB L2,
    so this study never scales below 0.7 even when the rest of the suite
    runs reduced.
    """
    scale = max(bench_scale, 0.7)

    def run():
        config = repro.default_system(4)
        out = {}
        for num_gpus in (1, 4):
            program = repro.get_workload("eqwp").build(
                num_gpus, scale=scale, iterations=2
            )
            analysis = get_analysis(program, config.with_num_gpus(num_gpus))
            kernel = program.phases_in_iteration(0)[0].kernels[0]
            out[num_gpus] = analysis.footprint(kernel).l2_hit_rate
        return out

    result = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["GPUs", "warm L2 hit rate %"],
            [[n, 100 * r] for n, r in result.items()],
            title="Ablation: EQWP per-GPU L2 hit rate vs GPU count",
        )
    )
    # Section 7.1: the per-GPU working set shrinks into the L2 at 4 GPUs.
    assert result[4] > result[1] + 0.15
