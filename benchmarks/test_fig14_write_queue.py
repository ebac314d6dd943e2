"""Figure 14: remote write queue hit rate vs queue size.

Paper claims: with 512 entries all applications achieve near-peak
coalescing; Jacobi sits at 0% (the SM coalescer captures its spatial
locality) and Pagerank/ALS/SSSP at 0% (atomics are not coalesced); CT,
EQWP, Diffusion, and HIT show rising curves.
"""

from conftest import run_figure

from repro.harness.experiments import COALESCING_APPS, ZERO_HIT_APPS
from repro.harness.report import format_table


def test_fig14_write_queue_hit_rate(benchmark):
    result = run_figure(benchmark, "fig14")
    sizes = result["queue_sizes"]
    rows = [
        [w] + [100 * result["hit_rate"][w][s] for s in sizes]
        for w in result["workloads"]
    ]
    print()
    print(
        format_table(
            ["app"] + [str(s) for s in sizes],
            rows,
            title="Figure 14: write queue hit rate (%) vs queue size",
        )
    )
    benchmark.extra_info["hit_rate"] = {
        w: {str(s): result["hit_rate"][w][s] for s in sizes}
        for w in result["workloads"]
    }

    for workload in ZERO_HIT_APPS:
        assert all(v == 0.0 for v in result["hit_rate"][workload].values()), workload
    for workload in COALESCING_APPS:
        series = [result["hit_rate"][workload][s] for s in sizes]
        assert series == sorted(series), f"{workload} curve must be monotonic"
        assert series[-1] > 0.1, workload
        # Near-peak by 512 entries: growing the queue to 1024 buys little.
        at512 = result["hit_rate"][workload][512]
        at1024 = result["hit_rate"][workload][1024]
        assert at1024 - at512 < 0.12, workload
