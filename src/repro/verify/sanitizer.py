"""Sanitizer self-validation: the analyzer is itself under test.

The differential harness (:mod:`repro.verify.differential`) trusts the
static analyzer: fuzzed programs are analyzer-clean by construction, so a
broken rule would silently stop guarding anything. This module closes that
loop with a mutation harness over the same fuzz corpus:

* **clean programs stay clean** — no error or warning diagnostics, no
  paradigm marked unsafe, and the simulation passes the invariant oracle;
* **injected defects are caught** — each mutator plants one known defect
  class (write-write race, uninitialized read, stale subscription, weak
  flag store, sys-scoped data access, atomic/plain mix) and the harness
  asserts the expected rule fires *with a concrete witness*;
* **the gate is consistent** — for every paradigm,
  :func:`repro.analysis.check_program` raises exactly when
  :func:`repro.analysis.blocking_diagnostics` reports a blocker, and every
  paradigm the rule-impact table marks unsafe is in fact refused.

``repro verify --sanitizer`` drives this from the command line; the CI
lint job runs it next to the SARIF baseline drift test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..analysis import (
    ALL_PARADIGMS,
    UNSAFE,
    Diagnostic,
    Severity,
    analyze_program,
    blocking_diagnostics,
    check_program,
    clear_cache,
    portability_report,
    rule_impact,
)
from ..analysis.engine import DEFAULT_PAGE_SIZE
from ..analysis.rules import RULES
from ..config import LINKS_BY_NAME, default_system
from ..errors import AnalysisError
from ..system.executor import simulate
from ..trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
from ..trace.records import AccessRange, MemOp, PatternKind, PatternSpec, Scope
from .fuzzer import generate_program
from .oracle import check_result

#: Sequential fill pattern used by every injected kernel.
_PATTERN = PatternSpec(PatternKind.SEQUENTIAL, bytes_per_txn=128, seed=7)


def _kernel(name: str, gpu: int, accesses: "tuple[AccessRange, ...]") -> KernelSpec:
    return KernelSpec(name=name, gpu=gpu, compute_ops=0.0, accesses=accesses)


def _max_iteration(program: TraceProgram) -> int:
    return max((p.iteration for p in program.phases), default=0)


def _profile_iteration(program: TraceProgram) -> "int | None":
    iterations = sorted({p.iteration for p in program.phases if p.iteration >= 0})
    return iterations[0] if iterations else None


def _with_extra_buffer(
    program: TraceProgram, buffer: BufferSpec, phases: "list[tuple[int | None, Phase]]"
) -> TraceProgram:
    """Clone ``program`` with one more buffer and extra phases.

    ``phases`` holds ``(index, phase)`` pairs; ``None`` appends at the end.
    Indices refer to the *original* phase list and are applied in order.
    """
    out = list(program.phases)
    for index, phase in phases:
        if index is None:
            out.append(phase)
        else:
            out.insert(index, phase)
    return TraceProgram(
        name=f"{program.name}+mut",
        num_gpus=program.num_gpus,
        buffers=program.buffers + (buffer,),
        phases=tuple(out),
        metadata=dict(program.metadata),
    )


def _mut_ww_overlap(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """Two GPUs plain-weak-write the same page in one phase -> GPS001."""
    if program.num_gpus < 2:
        return None
    buffer = BufferSpec("mut_race", 2 * page_size)

    def write(gpu: int) -> KernelSpec:
        return _kernel(
            f"mut_race_gpu{gpu}",
            gpu,
            (AccessRange("mut_race", 0, page_size, MemOp.WRITE, _PATTERN),),
        )

    phase = Phase(
        "mut.race", (write(0), write(1)), iteration=_max_iteration(program)
    )
    return _with_extra_buffer(program, buffer, [(None, phase)])


def _mut_uninit_read(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """A read of a buffer nothing ever wrote -> GPS003."""
    buffer = BufferSpec("mut_uninit", page_size)
    phase = Phase(
        "mut.uninit",
        (
            _kernel(
                "mut_uninit_gpu0",
                0,
                (AccessRange("mut_uninit", 0, page_size, MemOp.READ, _PATTERN),),
            ),
        ),
        iteration=_max_iteration(program),
    )
    return _with_extra_buffer(program, buffer, [(None, phase)])


def _mut_stale_read(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """A steady-iteration read of pages untouched while profiling -> GPS006.

    GPU 0 initialises and keeps rewriting the buffer; GPU 1 first reads it
    only *after* the profile iteration, so automatic subscription tracking
    would already have unsubscribed GPU 1 from those pages.
    """
    if program.num_gpus < 2:
        return None
    profile = _profile_iteration(program)
    last = _max_iteration(program)
    if profile is None or last <= profile:
        return None
    size = 2 * page_size
    buffer = BufferSpec("mut_stale", size)
    setup = Phase(
        "mut.stale.setup",
        (
            _kernel(
                "mut_stale_init_gpu0",
                0,
                (AccessRange("mut_stale", 0, size, MemOp.WRITE, _PATTERN),),
            ),
        ),
        iteration=-1,
    )
    profile_write = Phase(
        "mut.stale.profile",
        (
            _kernel(
                "mut_stale_write_gpu0",
                0,
                (AccessRange("mut_stale", 0, size, MemOp.WRITE, _PATTERN),),
            ),
        ),
        iteration=profile,
    )
    stale_read = Phase(
        "mut.stale.read",
        (
            _kernel(
                "mut_stale_read_gpu1",
                1,
                (AccessRange("mut_stale", 0, page_size, MemOp.READ, _PATTERN),),
            ),
        ),
        iteration=last,
    )
    # The profile-iteration write slots in right after the existing setup
    # phases so iteration labels stay nondecreasing in program order.
    first_steady = next(
        (i for i, p in enumerate(program.phases) if p.iteration > profile),
        len(program.phases),
    )
    return _with_extra_buffer(
        program,
        buffer,
        [(0, setup), (first_steady + 1, profile_write), (None, stale_read)],
    )


def _mut_weak_flag(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """A weak-scoped store to a sync buffer -> GPS005."""
    buffer = BufferSpec("mut_flag", page_size, sync=True)
    phase = Phase(
        "mut.flag",
        (
            _kernel(
                "mut_flag_gpu0",
                0,
                (AccessRange("mut_flag", 0, 128, MemOp.WRITE, _PATTERN, Scope.WEAK),),
            ),
        ),
        iteration=_max_iteration(program),
    )
    return _with_extra_buffer(program, buffer, [(None, phase)])


def _mut_sys_data(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """The program's first access flipped to SYS scope -> GPS004.

    Fuzzed programs declare no sync buffers and keep every access weak, so
    the first access always qualifies.
    """
    state = {"done": False}

    def flip(
        phase_index: int, kernel: KernelSpec, access_index: int, access: AccessRange
    ) -> "AccessRange | None":
        if state["done"] or access.scope is not Scope.WEAK:
            return None
        state["done"] = True
        return AccessRange(
            access.buffer,
            access.offset,
            access.length,
            access.op,
            access.pattern,
            Scope.SYS,
            access.repeat,
        )

    mutated = program.rewrite_accesses(flip)
    return None if mutated is program else mutated


def _mut_atomic_mix(
    program: TraceProgram, page_size: int
) -> "TraceProgram | None":
    """Concurrent atomic and plain stores on one page -> GPS007."""
    if program.num_gpus < 2:
        return None
    buffer = BufferSpec("mut_mix", page_size)
    setup = Phase(
        "mut.mix.setup",
        (
            _kernel(
                "mut_mix_init_gpu0",
                0,
                (AccessRange("mut_mix", 0, page_size, MemOp.WRITE, _PATTERN),),
            ),
        ),
        iteration=-1,
    )
    phase = Phase(
        "mut.mix",
        (
            _kernel(
                "mut_mix_gpu0",
                0,
                (AccessRange("mut_mix", 0, page_size, MemOp.WRITE, _PATTERN),),
            ),
            _kernel(
                "mut_mix_gpu1",
                1,
                (AccessRange("mut_mix", 0, page_size, MemOp.ATOMIC, _PATTERN),),
            ),
        ),
        iteration=_max_iteration(program),
    )
    return _with_extra_buffer(program, buffer, [(0, setup), (None, phase)])


#: ``(name, expected rule code, mutator)`` — one entry per defect class.
MUTATORS: "tuple[tuple[str, str, Callable[[TraceProgram, int], TraceProgram | None]], ...]" = (
    ("ww-overlap", "GPS001", _mut_ww_overlap),
    ("uninit-read", "GPS003", _mut_uninit_read),
    ("stale-read", "GPS006", _mut_stale_read),
    ("weak-flag", "GPS005", _mut_weak_flag),
    ("sys-data", "GPS004", _mut_sys_data),
    ("atomic-mix", "GPS007", _mut_atomic_mix),
)


@dataclass(slots=True)
class SanitizerReport:
    """Outcome of one :func:`run_sanitizer` sweep."""

    cases: int = 0
    mutants: "dict[str, int]" = field(default_factory=dict)
    failures: "list[str]" = field(default_factory=list)

    @property
    def mutants_checked(self) -> int:
        return sum(self.mutants.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "mutants": dict(sorted(self.mutants.items())),
            "mutants_checked": self.mutants_checked,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def _gate_raises(program: TraceProgram, paradigm: str, page_size: int) -> bool:
    try:
        check_program(program, page_size=page_size, paradigm=paradigm)
    except AnalysisError:
        return True
    return False


def _check_clean(
    report: SanitizerReport,
    seed: int,
    program: TraceProgram,
    diagnostics: "list[Diagnostic]",
    config,
    simulate_clean: bool,
) -> None:
    """Clean-program obligations: quiet analyzer, no unsafe paradigm, happy oracle."""
    fail = report.failures.append
    loud = [d for d in diagnostics if d.severity.rank >= Severity.WARNING.rank]
    if loud:
        fail(f"seed {seed}: clean program not strict-clean: {loud[0]}")
    unsafe = portability_report(program, diagnostics).unsafe_paradigms()
    if unsafe:
        fail(f"seed {seed}: clean program marked unsafe for {unsafe}")
    if not simulate_clean:
        return
    result = simulate(program, "gps", config)
    violations = check_result(result, config)
    if violations:
        fail(f"seed {seed}: analyzer-clean program fails the oracle: {violations[0]}")


def _check_mutant(
    report: SanitizerReport,
    seed: int,
    name: str,
    code: str,
    mutant: TraceProgram,
    page_size: int,
) -> None:
    """Mutant obligations: flagged with a witness and gated consistently."""
    fail = report.failures.append
    label = f"seed {seed}/{name}"
    diagnostics = analyze_program(mutant, page_size=page_size)
    hits = [d for d in diagnostics if d.code == code]
    if not hits:
        fail(f"{label}: expected {code}, analyzer reported "
             f"{sorted({d.code for d in diagnostics})}")
        return
    for hit in hits:
        if hit.witness is None or not hit.witness.site.kernel:
            fail(f"{label}: {code} diagnostic lacks a concrete witness")
            return

    severity = RULES[code].severity
    blocked = {
        paradigm
        for paradigm in ALL_PARADIGMS
        if _gate_raises(mutant, paradigm, page_size)
    }
    expected_blocked = {
        paradigm
        for paradigm in ALL_PARADIGMS
        if blocking_diagnostics(diagnostics, paradigm)
    }
    if blocked != expected_blocked:
        fail(f"{label}: gate refused {sorted(blocked)} but diagnostics "
             f"block {sorted(expected_blocked)}")
    if severity is Severity.ERROR:
        must_block = {
            paradigm
            for paradigm, verdict in rule_impact(code, severity).items()
            if verdict == UNSAFE
        }
        if not must_block <= blocked:
            fail(f"{label}: {code} should refuse {sorted(must_block)}, "
                 f"gate refused {sorted(blocked)}")


def run_sanitizer(
    *,
    seed: int = 0,
    cases: int = 10,
    num_gpus: int = 4,
    scale: float = 0.25,
    iterations: int = 2,
    link: str = "pcie6",
    page_size: int = DEFAULT_PAGE_SIZE,
    simulate_clean: bool = True,
    progress: "Optional[Callable[[str], None]]" = None,
) -> SanitizerReport:
    """Run the sanitizer self-validation sweep over ``cases`` fuzz seeds.

    Every seed is checked clean (analyzer, portability, oracle), then each
    applicable mutator's defect is injected and must be flagged and gated. Deterministic:
    the same arguments always test the same programs and mutants.
    """
    report = SanitizerReport()
    config = default_system(num_gpus, LINKS_BY_NAME[link])
    clear_cache()
    for case_seed in range(seed, seed + cases):
        program = generate_program(
            case_seed, num_gpus, scale=scale, iterations=iterations
        )
        diagnostics = analyze_program(program, page_size=page_size)
        _check_clean(
            report, case_seed, program, diagnostics, config, simulate_clean
        )
        report.cases += 1
        for name, code, mutator in MUTATORS:
            mutant = mutator(program, page_size)
            if mutant is None:
                continue
            report.mutants[name] = report.mutants.get(name, 0) + 1
            _check_mutant(report, case_seed, name, code, mutant, page_size)
        if progress is not None:
            state = "ok" if report.ok else f"{len(report.failures)} failure(s)"
            progress(f"seed {case_seed}: {len(MUTATORS)} mutator(s), {state}")
    return report


__all__ = ["MUTATORS", "SanitizerReport", "run_sanitizer"]
