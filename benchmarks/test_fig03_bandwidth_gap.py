"""Figure 3: the persistent ~3x local-vs-remote bandwidth gap."""

from conftest import run_figure

from repro.harness.report import format_table


def test_fig3_bandwidth_gap(benchmark):
    result = run_figure(benchmark, "fig3")
    rows = [
        [r["platform"], r["gpu"], r["interconnect"], r["local_gb_s"], r["remote_gb_s"], r["gap"]]
        for r in result["rows"]
    ]
    print()
    print(
        format_table(
            ["platform", "gpu", "interconnect", "local GB/s", "remote GB/s", "gap"],
            rows,
            title="Figure 3: local vs remote bandwidth across GPU platforms",
        )
    )
    assert result["min_gap"] >= 2.5, "the paper's ~3x gap must persist"
    assert result["max_gap"] < 20
