"""Memory-model sanitizer for trace programs.

A checker with one job: it runs the rules, attaches a witness to every
conformance finding, decides paradigm portability, and gates simulation.
It has three parts:

* **Precision core** — a cross-phase dataflow engine
  (:mod:`repro.analysis.dataflow`) plus a barrier-aware vector-clock
  happens-before engine over page-granular footprints
  (:mod:`repro.analysis.hb`, :mod:`repro.analysis.footprints`); every
  conformance diagnostic carries a concrete witness.
* **Portability matrix** — :mod:`repro.analysis.portability` decides which
  paradigms a program is correct under; the runner's pre-simulation gate
  refuses a program only for paradigms where a witness applies.
* **Speed** — an in-process analysis cache keyed by program fingerprint
  (:mod:`repro.analysis.cache`), benchmarked in
  ``benchmarks/bench_analysis.py``.

Library use::

    from repro.analysis import analyze_program

    diagnostics = analyze_program(program)
    errors = [d for d in diagnostics if d.severity == "error"]

CLI use::

    python -m repro lint trace.json --strict --format sarif
    python -m repro lint jacobi --gpus 4 --portability

The harness runner calls :func:`check_program` (with the job's paradigm)
before every simulation it computes.
"""

from .cache import cache_size, cache_stats, clear_cache
from .dataflow import AccessSite, ProgramDataflow
from .diagnostics import (
    Diagnostic,
    Location,
    Severity,
    SiteRef,
    Witness,
    max_severity,
    sort_diagnostics,
    sort_key,
)
from .emit import (
    render_json,
    render_json_dict,
    render_sarif,
    render_sarif_runs,
    render_text,
    sarif_run,
    severity_counts,
)
from .engine import DEFAULT_PAGE_SIZE, analyze_program, build_context, check_program
from .footprints import Footprint, page_count, program_fingerprint
from .hb import HappensBefore, SyncCycle
from .intervals import IntervalSet
from .portability import (
    ALL_PARADIGMS,
    HAZARD,
    RULE_IMPACT,
    SAFE,
    UNSAFE,
    ParadigmVerdict,
    PortabilityReport,
    blocking_diagnostics,
    portability_report,
    render_portability_text,
    rule_impact,
)
from .rules import RULES, AnalysisContext, Rule, rule

__all__ = [
    "ALL_PARADIGMS",
    "AccessSite",
    "AnalysisContext",
    "DEFAULT_PAGE_SIZE",
    "Diagnostic",
    "Footprint",
    "HAZARD",
    "HappensBefore",
    "IntervalSet",
    "Location",
    "ParadigmVerdict",
    "PortabilityReport",
    "ProgramDataflow",
    "RULES",
    "RULE_IMPACT",
    "Rule",
    "SAFE",
    "Severity",
    "SiteRef",
    "SyncCycle",
    "UNSAFE",
    "Witness",
    "analyze_program",
    "blocking_diagnostics",
    "build_context",
    "cache_size",
    "cache_stats",
    "check_program",
    "clear_cache",
    "max_severity",
    "page_count",
    "portability_report",
    "program_fingerprint",
    "render_json",
    "render_json_dict",
    "render_portability_text",
    "render_sarif",
    "render_sarif_runs",
    "render_text",
    "rule",
    "rule_impact",
    "sarif_run",
    "severity_counts",
    "sort_diagnostics",
    "sort_key",
]
