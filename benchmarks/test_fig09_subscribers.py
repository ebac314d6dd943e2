"""Figure 9: subscriber distribution for shared application pages.

Paper claims: ALS subscribes nearly all pages all-to-all; Jacobi needs only
one remote subscriber (2 total) for most pages because of halo exchange;
the variation across apps justifies automatic unsubscription.
"""

from conftest import run_figure

from repro.harness.report import format_table


def test_fig9_subscriber_distribution(benchmark):
    result = run_figure(benchmark, "fig9")
    dist = result["percent_by_subscribers"]
    rows = [
        [w, d.get(2, 0.0), d.get(3, 0.0), d.get(4, 0.0)] for w, d in dist.items()
    ]
    print()
    print(
        format_table(
            ["app", "2 subs %", "3 subs %", "4 subs %"],
            rows,
            title="Figure 9: shared pages by subscriber count (4 GPUs)",
        )
    )
    benchmark.extra_info["distribution"] = {w: dict(d) for w, d in dist.items()}

    assert dist["jacobi"].get(2, 0) > 60, "Jacobi: halo pairs dominate"
    assert dist["als"].get(4, 0) > 85, "ALS: all-to-all"
    assert dist["ct"].get(4, 0) > 85, "CT: all-to-all"
    # Graph apps show a genuine mixture.
    assert len(dist["pagerank"]) >= 2
