"""Diagnostic emitters: text, JSON, and SARIF 2.1.0.

All three formats are deterministic for a given program — diagnostics keep
the canonical location-major order of
:func:`repro.analysis.diagnostics.sort_key` and no timestamps are embedded
— so golden-file tests can compare bytes. JSON and SARIF both carry the
full sanitizer payload: each diagnostic's witness and the program's
paradigm-portability matrix.
"""

from __future__ import annotations

import json

from ..trace.program import TraceProgram
from .diagnostics import Diagnostic, max_severity
from .portability import portability_report
from .rules import RULES

#: SARIF reportingConfiguration levels per severity.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def severity_counts(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """``{"error": n, "warning": n, "info": n}`` (always all three keys)."""
    counts = {"error": 0, "warning": 0, "info": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return counts


def render_text(program: TraceProgram, diagnostics: list[Diagnostic]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [str(d) for d in diagnostics]
    counts = severity_counts(diagnostics)
    if not diagnostics:
        lines.append(f"{program.name}: clean, no findings")
    else:
        lines.append(
            f"{program.name}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info(s)"
        )
    return "\n".join(lines)


def render_json_dict(program: TraceProgram, diagnostics: list[Diagnostic]) -> dict:
    """JSON-safe dict form of one program's analysis."""
    top = max_severity(diagnostics)
    return {
        "program": program.name,
        "num_gpus": program.num_gpus,
        "max_severity": top.value if top is not None else None,
        "counts": severity_counts(diagnostics),
        "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
        "portability": portability_report(program, diagnostics).to_dict(),
    }


def render_json(program: TraceProgram, diagnostics: list[Diagnostic]) -> str:
    """Machine-readable JSON report for one program."""
    return json.dumps(render_json_dict(program, diagnostics), indent=2, sort_keys=True)


def sarif_run(program: TraceProgram, diagnostics: list[Diagnostic]) -> dict:
    """One SARIF ``run`` object covering one trace program."""
    codes = sorted(RULES)
    rule_index = {code: i for i, code in enumerate(codes)}
    driver = {
        "name": "repro-analysis",
        "rules": [
            {
                "id": code,
                "name": RULES[code].name,
                "shortDescription": {"text": RULES[code].summary},
                "defaultConfiguration": {
                    "level": _SARIF_LEVELS[RULES[code].severity.value]
                },
                "properties": {"paper": RULES[code].paper},
            }
            for code in codes
        ],
    }
    results = []
    for diagnostic in diagnostics:
        loc = diagnostic.location
        properties = {
            key: value
            for key, value in (
                ("phase", loc.phase),
                ("kernel", loc.kernel),
                ("gpu", loc.gpu),
                ("buffer", loc.buffer),
                ("interval", list(loc.interval) if loc.interval else None),
                (
                    "witness",
                    diagnostic.witness.to_dict()
                    if diagnostic.witness is not None
                    else None,
                ),
            )
            if value is not None
        }
        results.append({
            "ruleId": diagnostic.code,
            "ruleIndex": rule_index[diagnostic.code],
            "level": _SARIF_LEVELS[diagnostic.severity.value],
            "message": {"text": diagnostic.message},
            "locations": [
                {
                    "logicalLocations": [
                        {
                            "fullyQualifiedName": loc.qualified_name(),
                            "kind": "function",
                        }
                    ]
                }
            ],
            "properties": properties,
        })
    return {
        "tool": {"driver": driver},
        "properties": {
            "program": program.name,
            "num_gpus": program.num_gpus,
            "portability": portability_report(program, diagnostics).to_dict(),
        },
        "results": results,
    }


def render_sarif(program: TraceProgram, diagnostics: list[Diagnostic]) -> str:
    """SARIF 2.1.0 document for one program."""
    return render_sarif_runs([sarif_run(program, diagnostics)])


def render_sarif_runs(runs: list[dict]) -> str:
    """SARIF 2.1.0 document from prebuilt runs (multi-program lint)."""
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": runs,
    }
    return json.dumps(document, indent=2, sort_keys=True)
