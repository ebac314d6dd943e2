"""Analyzer entry points: run the rule registry over a program.

``analyze_program`` is the library call; ``check_program`` is the gate the
harness runs before every simulation (raising :class:`AnalysisError` on
blocking findings). Rule selection mirrors familiar linter CLIs:
``select``/``ignore`` take exact codes or prefixes (``GPS1`` matches every
hygiene rule), and a trace file can carry its own suppressions in
``metadata["analysis_ignore"]``.

Results are deterministic — diagnostics come back in the canonical
location-major order of :func:`repro.analysis.diagnostics.sort_key` — and
memoized in an in-process cache keyed by the program fingerprint
(:mod:`repro.analysis.cache`), so the runner's per-job gate re-analyzes a
program once, not once per paradigm.
"""

from __future__ import annotations

from typing import Iterable

from ..config import PAGE_64K
from ..errors import AnalysisError
from ..trace.program import TraceProgram
from .cache import cache_get, cache_put
from .dataflow import ProgramDataflow
from .diagnostics import Diagnostic, sort_diagnostics
from .footprints import program_fingerprint
from .hb import HappensBefore
from .portability import blocking_diagnostics
from .rules import RULES, AnalysisContext

#: Page granularity the subscription-related rules default to (GPS's 64 KiB).
DEFAULT_PAGE_SIZE = PAGE_64K


def _matches(code: str, patterns: Iterable[str]) -> bool:
    return any(code.startswith(pattern) for pattern in patterns if pattern)


def _normalise(codes: "Iterable[str] | None") -> list[str]:
    if not codes:
        return []
    out: list[str] = []
    for entry in codes:
        out.extend(part.strip() for part in entry.split(",") if part.strip())
    return out


def _check_known(flag: str, patterns: list[str]) -> None:
    """Reject a pattern that matches no rule: a typo must not mute the analyzer."""
    for pattern in patterns:
        if not any(code.startswith(pattern) for code in RULES):
            known = ", ".join(sorted(RULES))
            raise ValueError(
                f"{flag} {pattern!r} matches no rule code (known: {known})"
            )


def build_context(
    program: TraceProgram, page_size: int = DEFAULT_PAGE_SIZE
) -> AnalysisContext:
    """Dataflow + happens-before facts for one program (no rules run)."""
    dataflow = ProgramDataflow(program, page_size)
    return AnalysisContext(program, dataflow, page_size, HappensBefore(dataflow))


def analyze_program(
    program: TraceProgram,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    select: "Iterable[str] | None" = None,
    ignore: "Iterable[str] | None" = None,
    use_cache: bool = True,
) -> list[Diagnostic]:
    """Run every enabled rule; returns diagnostics (empty = clean).

    ``select`` limits the run to the given rule codes (or code prefixes);
    ``ignore`` drops codes after selection. Codes listed in the program's
    ``metadata["analysis_ignore"]`` are suppressed as if passed to
    ``ignore`` — that is the per-trace suppression mechanism for saved
    trace files, and unlike ``select``/``ignore`` it may name codes that
    match no rule. Diagnostics come back in canonical deterministic order.
    ``use_cache=False`` forces a cold run (benchmarks, differential
    validation).

    Raises :class:`ValueError` naming the token when a ``select`` or
    ``ignore`` entry matches no rule code, exactly or as a prefix.
    """
    selected = _normalise(select)
    ignored = _normalise(ignore)
    _check_known("select", selected)
    _check_known("ignore", ignored)
    metadata_ignore = program.metadata.get("analysis_ignore", ())
    if isinstance(metadata_ignore, str):
        metadata_ignore = [metadata_ignore]
    ignored.extend(_normalise(metadata_ignore))

    key = None
    if use_cache:
        key = (
            program_fingerprint(program, page_size),
            tuple(selected),
            tuple(sorted(ignored)),
        )
        cached = cache_get(key)
        if cached is not None:
            return list(cached)

    context = build_context(program, page_size)
    diagnostics: list[Diagnostic] = []
    for code in sorted(RULES):
        if selected and not _matches(code, selected):
            continue
        if _matches(code, ignored):
            continue
        diagnostics.extend(RULES[code].check(context))
    diagnostics = sort_diagnostics(diagnostics)
    if key is not None:
        cache_put(key, tuple(diagnostics))
    return diagnostics


def check_program(
    program: TraceProgram,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    paradigm: "str | None" = None,
) -> list[Diagnostic]:
    """Gate a program before simulation.

    Returns the full diagnostic list when nothing blocks; raises
    :class:`AnalysisError` (carrying the diagnostics) otherwise. With
    ``paradigm=None`` every error-severity finding blocks (the legacy
    global gate); with a concrete paradigm only errors whose portability
    impact marks that paradigm unsafe do — see
    :func:`repro.analysis.portability.blocking_diagnostics`. The harness
    runner calls this with the job's paradigm before every simulation it
    computes.
    """
    diagnostics = analyze_program(program, page_size=page_size)
    errors = blocking_diagnostics(diagnostics, paradigm)
    if errors:
        preview = "; ".join(str(d) for d in errors[:3])
        if len(errors) > 3:
            preview += f"; ... ({len(errors) - 3} more)"
        target = f" under paradigm {paradigm!r}" if paradigm is not None else ""
        raise AnalysisError(
            f"trace program {program.name!r} fails static analysis{target} "
            f"with {len(errors)} error(s): {preview}",
            diagnostics=diagnostics,
        )
    return diagnostics
