"""Figure 13: sensitivity to interconnect bandwidth (PCIe 3.0 -> 6.0).

Paper claims: traditional paradigms barely improve with faster links;
GPS converts added bandwidth into scaling and approaches the infinite-
bandwidth limit at PCIe 6.0.
"""

import pytest
from conftest import run_figure

from repro.harness.report import format_table


def test_fig13_bandwidth_sensitivity(benchmark):
    result = run_figure(benchmark, "fig13")
    rows = [
        [link] + [result["geomean"][link][p] for p in result["paradigms"]]
        for link in result["links"]
    ]
    print()
    print(
        format_table(
            ["link"] + list(result["paradigms"]),
            rows,
            title="Figure 13: geomean 4-GPU speedup vs interconnect",
        )
    )
    benchmark.extra_info["geomean"] = {l: dict(d) for l, d in result["geomean"].items()}

    means = result["geomean"]
    # Every paradigm is monotonic in bandwidth.
    for paradigm in result["paradigms"]:
        series = [means[l][paradigm] for l in result["links"]]
        assert all(b >= a * 0.99 for a, b in zip(series, series[1:])), paradigm
    # GPS gains more from PCIe 3 -> 6 than memcpy or UM do.
    gps_gain = means["pcie6"]["gps"] / means["pcie3"]["gps"]
    assert gps_gain > means["pcie6"]["um"] / means["pcie3"]["um"]
    # At PCIe 6.0, GPS approaches the infinite-bandwidth limit.
    assert means["pcie6"]["gps"] > 0.8 * means["pcie6"]["infinite"]
    # Infinite bandwidth is (nearly) link-independent.
    assert means["pcie3"]["infinite"] == pytest.approx(
        means["pcie6"]["infinite"], rel=0.02
    )

