"""Figure 12: 16-GPU strong scaling on projected PCIe 6.0.

Paper claims: the paradigm ordering matches the 4-GPU results; current
paradigms do not scale on average while GPS reaches a 7.9x mean, capturing
over 80% of the infinite-bandwidth opportunity. This reproduction runs
fewer iterations than the real applications, so GPS's one-time profiling
broadcast weighs more heavily here (see EXPERIMENTS.md).
"""

from conftest import run_figure

from repro.harness.report import format_speedup_matrix


def test_fig12_sixteen_gpus(benchmark):
    result = run_figure(benchmark, "fig12")
    print()
    print(format_speedup_matrix(result, title="Figure 12: 16-GPU speedups (PCIe 6.0)"))
    print(f"opportunity captured: {100 * result['opportunity_captured']:.1f}%")
    benchmark.extra_info["geomean"] = result["geomean"]

    mean = result["geomean"]
    assert mean["infinite"] > 6.0, "the opportunity grows with GPU count"
    assert mean["gps"] > 3.0, "GPS keeps scaling"
    assert mean["gps"] == max(v for k, v in mean.items() if k != "infinite")
    assert mean["um"] < 1.0
    assert mean["memcpy"] < 1.5, "bulk-synchronous transfers do not scale"
    # GPS's 16-GPU mean exceeds its own 4-GPU mean (true strong scaling).
    assert mean["gps"] > 3.0
