"""Figure 1: HPC programs strong-scale poorly on today's interconnects.

Paper claim: with naive (bulk-synchronous) partitioning on 4 GV100s,
PCIe 3.0 can be ~30% *slower* than one GPU, projected PCIe 6.0 reaches
~2x, and an infinite interconnect ~3x.
"""

from conftest import run_figure

from repro.harness.report import format_table


def test_fig1_motivation(benchmark):
    result = run_figure(benchmark, "fig1")
    rows = [
        [w] + [result["speedups"][w][l] for l in result["interconnects"]]
        for w in result["workloads"]
    ]
    rows.append(["geomean"] + [result["geomean"][l] for l in result["interconnects"]])
    print()
    print(
        format_table(
            ["app", "pcie3", "pcie6", "infinite"],
            rows,
            title="Figure 1: 4-GPU speedup under bulk-synchronous partitioning",
        )
    )
    benchmark.extra_info["geomean"] = result["geomean"]

    assert result["geomean"]["pcie3"] < 1.3, "PCIe 3.0 should barely beat one GPU"
    assert 1.2 < result["geomean"]["pcie6"] < 3.0, "paper: ~2x at projected PCIe 6.0"
    assert result["geomean"]["infinite"] > 2.5, "paper: ~3x with infinite bandwidth"
    assert (
        result["geomean"]["pcie3"]
        < result["geomean"]["pcie6"]
        < result["geomean"]["infinite"]
    )
