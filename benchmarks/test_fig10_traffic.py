"""Figure 10: interconnect bytes moved, normalised to memcpy.

Paper claims: UM inflates traffic via thrashing (up to 4.4x for ALS); GPS's
unsubscription drastically cuts traffic for most apps (tiny for stencils,
near 1x for the all-to-all apps); RDL exceeds memcpy only for ALS.
"""

from conftest import run_figure

from repro.harness.report import format_table


def test_fig10_interconnect_traffic(benchmark):
    result = run_figure(benchmark, "fig10")
    norm = result["normalized_to_memcpy"]
    rows = [
        [w] + [norm[w][p] for p in result["paradigms"]] for w in result["workloads"]
    ]
    print()
    print(
        format_table(
            ["app"] + result["paradigms"],
            rows,
            title="Figure 10: data moved over interconnect (memcpy = 1.0)",
        )
    )
    benchmark.extra_info["normalized"] = {w: dict(d) for w, d in norm.items()}

    assert norm["als"]["um"] > 1.2, "UM thrashes ALS (paper: 4.4x; shape, not magnitude)"
    assert norm["jacobi"]["um"] < 1.0, "paper exception: UM < memcpy for Jacobi"
    assert norm["als"]["rdl"] > 1.0, "RDL refetches ALS lines (paper)"
    for stencil in ("jacobi", "eqwp", "diffusion", "hit"):
        assert norm[stencil]["gps"] < 0.5, f"GPS slashes {stencil} traffic"
    assert norm["als"]["gps"] > 0.5, "ALS stays near all-to-all under GPS"
