"""Emitter tests: text rendering plus golden-file JSON and SARIF output.

The goldens pin the exact serialised form — any emitter change must come
with a deliberate golden refresh (rerun the two ``render_*`` calls and
rewrite the files), never an accidental drift.
"""

from __future__ import annotations

import json

from repro.analysis import (
    Severity,
    analyze_program,
    max_severity,
    render_json,
    render_sarif,
    render_text,
    severity_counts,
)

from .conftest import GOLDEN


def test_json_matches_golden(broken_program):
    rendered = render_json(broken_program, analyze_program(broken_program)) + "\n"
    assert rendered == (GOLDEN / "broken_trace.json.golden").read_text()


def test_sarif_matches_golden(broken_program):
    rendered = render_sarif(broken_program, analyze_program(broken_program)) + "\n"
    assert rendered == (GOLDEN / "broken_trace.sarif.golden").read_text()


def test_json_is_valid_and_structured(broken_program):
    diagnostics = analyze_program(broken_program)
    payload = json.loads(render_json(broken_program, diagnostics))
    assert payload["program"] == "broken-fixture"
    assert payload["num_gpus"] == 4
    assert payload["max_severity"] == "error"
    assert len(payload["diagnostics"]) == len(diagnostics)
    first = payload["diagnostics"][0]
    assert set(first) == {
        "severity", "code", "rule", "message",
        "phase", "kernel", "gpu", "buffer", "interval",
        "witness",
    }
    # Every conformance (GPS0xx) finding carries a concrete witness site.
    for entry in payload["diagnostics"]:
        if entry["code"].startswith("GPS0"):
            assert entry["witness"] is not None
            assert entry["witness"]["site"]["kernel"]
    # The portability matrix covers every paradigm with a verdict.
    matrix = payload["portability"]
    verdicts = {v["paradigm"]: v["verdict"] for v in matrix["verdicts"]}
    from repro.analysis import ALL_PARADIGMS

    assert set(verdicts) == set(ALL_PARADIGMS)
    assert set(verdicts.values()) <= {"safe", "hazard", "unsafe"}
    assert verdicts["gps"] == "unsafe"


def test_sarif_levels_and_locations(broken_program):
    diagnostics = analyze_program(broken_program)
    sarif = json.loads(render_sarif(broken_program, diagnostics))
    (run,) = sarif["runs"]
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    results = run["results"]
    assert len(results) == len(diagnostics)
    assert {r["ruleId"] for r in results} <= rules
    assert {r["level"] for r in results} == {"error", "warning", "note"}
    gps001 = next(r for r in results if r["ruleId"] == "GPS001")
    logical = gps001["locations"][0]["logicalLocations"][0]
    assert logical["fullyQualifiedName"] == "it0/mix/k_w1@gpu1"
    assert gps001["properties"]["interval"] == [4096, 8192]


def test_text_rendering(broken_program):
    diagnostics = analyze_program(broken_program)
    text = render_text(broken_program, diagnostics)
    assert "broken-fixture:" in text
    assert "error" in text
    assert "[error] GPS001 weak-write-write-race" in text
    clean = render_text(broken_program, [])
    assert "clean" in clean


def test_severity_counts_and_max(broken_program):
    diagnostics = analyze_program(broken_program)
    counts = severity_counts(diagnostics)
    assert counts["error"] >= 1
    assert counts["warning"] >= 1
    assert counts["info"] >= 1
    assert sum(counts.values()) == len(diagnostics)
    assert max_severity(diagnostics) is Severity.ERROR
    assert max_severity([]) is None
