"""Figure 11: performance sensitivity to subscription tracking.

Paper claims: bandwidth savings from subscription tracking are the primary
factor in GPS's scalability for most apps; the exceptions are ALS and CT,
whose pages are subscribed by all GPUs anyway.
"""

from conftest import run_figure

from repro.harness.report import format_speedup_matrix


def test_fig11_subscription_benefit(benchmark):
    result = run_figure(benchmark, "fig11")
    print()
    print(
        format_speedup_matrix(
            result, title="Figure 11: GPS with vs without subscription"
        )
    )
    benchmark.extra_info["speedups"] = {
        w: dict(row) for w, row in result["speedups"].items()
    }

    speedups = result["speedups"]
    # Subscription tracking never hurts.
    for workload, row in speedups.items():
        assert row["gps"] >= row["gps_nosub"] * 0.98, workload
    # Primary factor for the peer-to-peer apps...
    for workload in ("jacobi", "eqwp", "diffusion", "hit"):
        assert speedups[workload]["gps"] > 1.25 * speedups[workload]["gps_nosub"]
    # ...but not for the all-to-all apps (paper's stated exceptions).
    for workload in ("als", "ct"):
        assert speedups[workload]["gps"] < 1.2 * speedups[workload]["gps_nosub"]
