"""Table 2: the application suite under study."""

from conftest import run_figure

from repro.harness.report import format_table


def test_table2_applications(benchmark):
    result = run_figure(benchmark, "table2")
    rows = [[r["name"], r["description"], r["comm_pattern"]] for r in result["rows"]]
    print()
    print(
        format_table(
            ["application", "description", "communication pattern"],
            rows,
            title="Table 2: applications under study",
        )
    )

    by_name = {r["name"]: r for r in result["rows"]}
    assert set(by_name) == {
        "jacobi", "pagerank", "sssp", "als", "ct", "eqwp", "diffusion", "hit",
    }
    assert by_name["als"]["comm_pattern"] == "All-to-all"
    assert by_name["ct"]["comm_pattern"] == "All-to-all"
    assert by_name["sssp"]["comm_pattern"] == "Many-to-many"
    for stencil in ("jacobi", "eqwp", "diffusion", "hit"):
        assert by_name[stencil]["comm_pattern"].lower() == "peer-to-peer"
