"""Section 7.4: GPS-TLB size sensitivity.

Paper claim: despite general-purpose GPU TLBs needing thousands of entries,
the GPS-TLB hit rate approaches 100% at just 32 entries, because it only
services coalesced remote writes to the GPS heap.
"""

from conftest import run_figure

from repro.harness.report import format_table


def test_gps_tlb_sensitivity(benchmark):
    result = run_figure(benchmark, "gps-tlb")
    sizes = result["tlb_sizes"]
    rows = [
        [w] + [100 * result["hit_rate"][w][s] for s in sizes]
        for w in result["workloads"]
    ]
    print()
    print(
        format_table(
            ["app"] + [str(s) for s in sizes],
            rows,
            title="GPS-TLB hit rate (%) vs entries (section 7.4)",
        )
    )
    benchmark.extra_info["hit_rate"] = {
        w: {str(s): result["hit_rate"][w][s] for s in sizes}
        for w in result["workloads"]
    }

    for workload in result["workloads"]:
        rates = result["hit_rate"][workload]
        # Monotonic within measurement tolerance.
        series = [rates[s] for s in sizes]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:])), workload
        # The paper's headline: ~100% at just 32 entries. ALS's random
        # atomic scatter spreads drains across more pages than the rest of
        # the suite and saturates one notch later (see EXPERIMENTS.md).
        assert rates[32] > 0.80, workload
        assert rates[64] > 0.95, workload
    coalescing = [w for w in result["workloads"] if w != "als"]
    assert all(result["hit_rate"][w][32] > 0.95 for w in coalescing)
