"""Differential conformance: one program, four execution paths, one answer.

The repo has four ways to obtain a :class:`SimulationResult` for the same
``(workload, paradigm, config)``:

1. **direct** — construct the paradigm executor and ``run()`` it;
2. **cache**  — the memoised runner, warm from a persistent disk record
   written by a previous process;
3. **pool**   — ``run_many``'s process-pool fan-out, crossing a fork and a
   pickle boundary;
4. **service** — the live asyncio service, crossing an HTTP and a JSON
   boundary on top.

Simulations are deterministic, so all four must agree *byte-for-byte* on
the canonical JSON of ``to_dict()``. A divergence is localised by the
schedule digest each result carries: digests differing means the scheduler
itself diverged (seeding, hash-order, float provenance); identical digests
with different payloads means the result assembly or a serialisation layer
is lossy.

On top of path identity, each case is checked against the invariant oracle
(:mod:`repro.verify.oracle`) and three metamorphic relations: doubling link
bandwidth never increases simulated time, GPS with subscription tracking
never moves more bytes than GPS with every GPU subscribed, and a warm
process gives the same bytes as a cold one (``differential-warm-cold``):
``gps`` over a small write-queue x GPS-TLB grid, then ``um`` and
``memcpy``, all run in one process that already analysed the program,
match each run cold: on a freshly built program (so its fingerprint memo
is empty) after the analysis cache and the runner's memos are cleared.
The four paths above start every program from clean memo state, so only
this relation sees a memo keyed on too little between programs or
configs. Inside one program, warm and cold runs visit kernels in the
same order, so a coarse key gives the same wrong value on both sides;
:func:`check_memo_free` (``differential-memo-free``) therefore also
recomputes every kernel of the warm analysis with no memo at all. The
relation runs on a small L2, so that kernels' reads spill and a kernel's
hit rate depends on which lines it reads.

A fourth relation covers the store-stream release path
(``differential-released-streams``): ``gps`` runs once, the process moves
on to another program (which releases the first program's store streams),
and ``gps`` then runs the first program again at a write-queue size no
earlier run used, so every window misses the memo and replays streams
rebuilt on demand. That run must match a cold one, on the vectorised path
and under ``REPRO_SCALAR_REPLAY=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from ..cache.cache import set_count
from ..cache.warm_lru import warm_lru_hits
from ..config import CACHE_BLOCK, LinkConfig
from ..gpu.sm_coalescer import CoalescerStats, sm_coalesce
from ..harness.runner import SimJob, clear_run_cache, resolve_link, run_many
from ..names import DEFAULT_VERIFY_PARADIGMS
from ..paradigms import PARADIGMS
from ..system.analysis import ProgramAnalysis, clear_analysis_cache, get_analysis
from ..system.results import SimulationResult
from ..trace.expand import LineStream, expand_range
from .fuzzer import FuzzSpec, generate_program
from .oracle import Violation, check_execution, check_family, check_result

#: Default paradigm set, shared with the CLI's ``verify --paradigms`` default.
DEFAULT_PARADIGMS = DEFAULT_VERIFY_PARADIGMS

#: Execution paths the harness compares, in the order they run.
PATHS = ("direct", "cache", "pool", "service")

#: ``(write-queue entries, GPS-TLB entries)`` of the warm-process relation,
#: in run order: two sizes of each, interleaved so consecutive jobs differ.
WARM_COLD_GRID = ((32, 8), (512, 32), (32, 32), (512, 8))

#: Run after that grid on the same warm analysis: its page sets and L2 rates.
WARM_COLD_PARADIGMS = ("um", "memcpy")

#: L2 size of the warm-process relation: small enough that fuzzed kernels'
#: reads spill, so equal hit rates cannot hide a coarse L2 memo key.
WARM_COLD_L2_BYTES = 64 * 1024

#: Write-queue size of the release relation's second run. No other run of
#: that relation uses it, so every window misses the window memo.
RELEASED_QUEUE_ENTRIES = 48


def canonical_payload(result: SimulationResult) -> str:
    """The canonical JSON string all paths are compared on."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: str) -> str:
    return json.loads(payload).get("extras", {}).get("schedule_digest", "?")


@contextlib.contextmanager
def _scoped_env(**values: "str | None"):
    """Set/unset environment variables, restoring the previous state."""
    saved = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class CaseReport:
    """Everything the harness learned about one fuzzed program."""

    spec: FuzzSpec
    violations: "list[Violation]" = field(default_factory=list)
    #: paradigm -> path -> canonical payload (only divergent ones are kept
    #: in full by the artifact layer; the report holds them all).
    payloads: "dict[str, dict[str, str]]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class VerifyReport:
    """The outcome of one differential verification run."""

    cases: "list[CaseReport]" = field(default_factory=list)
    paths: "tuple[str, ...]" = PATHS

    @property
    def violations(self) -> "list[tuple[FuzzSpec, Violation]]":
        return [(c.spec, v) for c in self.cases for v in c.violations]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def summary(self) -> dict:
        return {
            "cases": len(self.cases),
            "failed_cases": sum(0 if c.ok else 1 for c in self.cases),
            "violations": sum(len(c.violations) for c in self.cases),
            "paths": list(self.paths),
        }


class ServiceHandle:
    """A live :class:`SimulationService` on an ephemeral port, in-process.

    The service runs in a daemon thread with its own event loop — the same
    shape the service test suite uses — so the differential harness can
    exercise the real HTTP/JSON path without shelling out.
    """

    def __init__(self) -> None:
        import asyncio

        from ..service import ServiceSettings, SimulationService

        settings = ServiceSettings(
            host="127.0.0.1", port=0, batch_size=8, max_retries=1, max_workers=1,
        )
        self.service: "SimulationService | None" = None
        self._started = threading.Event()

        def _run() -> None:
            async def _main() -> None:
                self.service = SimulationService(settings)
                await self.service.start()
                self._started.set()
                await self.service.serve_forever()

            asyncio.run(_main())

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        if not self._started.wait(15):
            raise RuntimeError("verify: in-process service failed to start")

    def client(self):
        from ..service import ServiceClient

        assert self.service is not None
        return ServiceClient(
            f"http://{self.service.host}:{self.service.port}", timeout=30.0
        )

    def stop(self) -> None:
        if self._thread.is_alive():
            try:
                self.client().shutdown(drain=False)
            except Exception:
                pass
            self._thread.join(30)


def _doubled(link: "str | LinkConfig") -> LinkConfig:
    resolved = resolve_link(link)
    return dataclasses.replace(
        resolved, name=f"{resolved.name}-x2", bandwidth=resolved.bandwidth * 2
    )


def _direct_case(
    spec: FuzzSpec, paradigms, link, report: CaseReport
) -> "dict[str, SimulationResult]":
    """Direct path: run the executors in-process, oracle every result."""
    program = generate_program(
        spec.seed, spec.num_gpus, scale=spec.scale, iterations=spec.iterations
    )
    family: "dict[str, SimulationResult]" = {}
    for paradigm in paradigms:
        job = SimJob(
            spec.workload_name, paradigm, spec.num_gpus, link,
            spec.scale, spec.iterations,
        )
        config = job.resolved_config()
        executor = PARADIGMS[paradigm](program, config)
        result = executor.run()
        family[paradigm] = result
        report.payloads.setdefault(paradigm, {})["direct"] = canonical_payload(result)
        for violation in check_result(result, config) + check_execution(executor, result):
            report.violations.append(
                Violation(violation.check, f"{paradigm}: {violation.message}")
            )
    report.violations.extend(check_family(family))
    return family


def _metamorphic_case(spec: FuzzSpec, paradigms, link, report: CaseReport) -> None:
    """Doubling link bandwidth must never increase simulated time."""
    program = generate_program(
        spec.seed, spec.num_gpus, scale=spec.scale, iterations=spec.iterations
    )
    paradigm = "gps" if "gps" in paradigms else paradigms[0]
    for chosen in (link, _doubled(link)):
        job = SimJob(
            spec.workload_name, paradigm, spec.num_gpus, chosen,
            spec.scale, spec.iterations,
        )
        result = PARADIGMS[paradigm](program, job.resolved_config()).run()
        if chosen is link:
            baseline = result.total_time
        elif result.total_time > baseline * (1 + 1e-9):
            report.violations.append(
                Violation(
                    "metamorphic-bandwidth",
                    f"{paradigm}: doubling {resolve_link(link).name} bandwidth "
                    f"raised total_time {baseline} -> {result.total_time}",
                )
            )


def _warm_cold_case(spec: FuzzSpec, link, report: CaseReport) -> None:
    """A warm process must produce the same payload bytes as a cold one."""
    program = generate_program(
        spec.seed, spec.num_gpus, scale=spec.scale, iterations=spec.iterations
    )
    base = SimJob(
        spec.workload_name, "gps", spec.num_gpus, link, spec.scale, spec.iterations
    ).resolved_config()
    base = dataclasses.replace(
        base, gpu=dataclasses.replace(base.gpu, l2_bytes=WARM_COLD_L2_BYTES)
    )
    runs = [
        (f"gps (write queue {entries}, GPS-TLB {tlb})", "gps", dataclasses.replace(
            base, gps=dataclasses.replace(base.gps, write_queue_entries=entries, gps_tlb_entries=tlb)
        ))
        for entries, tlb in WARM_COLD_GRID
    ] + [(paradigm, paradigm, base) for paradigm in WARM_COLD_PARADIGMS]
    warm = [canonical_payload(PARADIGMS[p](program, c).run()) for _, p, c in runs]
    report.violations.extend(check_memo_free(get_analysis(program, base)))
    for (label, paradigm, config), payload in zip(runs, warm):
        clear_analysis_cache()
        clear_run_cache()
        cold = generate_program(
            spec.seed, spec.num_gpus, scale=spec.scale, iterations=spec.iterations
        )
        if canonical_payload(PARADIGMS[paradigm](cold, config).run()) != payload:
            report.violations.append(
                Violation(
                    "differential-warm-cold",
                    f"{label}: payload after other runs in one process "
                    "differs from a cold run",
                )
            )
    clear_analysis_cache()


def _released_case(spec: FuzzSpec, link, report: CaseReport) -> None:
    """A GPS run on rebuilt store streams must match a cold run."""
    def build(seed: int):
        return generate_program(seed, spec.num_gpus, scale=spec.scale, iterations=spec.iterations)

    base = SimJob(
        spec.workload_name, "gps", spec.num_gpus, link, spec.scale, spec.iterations
    ).resolved_config()
    config = dataclasses.replace(
        base, gps=dataclasses.replace(base.gps, write_queue_entries=RELEASED_QUEUE_ENTRIES)
    )
    for mode, scalar in (("vectorised", None), ("REPRO_SCALAR_REPLAY=1", "1")):
        with _scoped_env(REPRO_SCALAR_REPLAY=scalar):
            clear_analysis_cache()
            program = build(spec.seed)
            PARADIGMS["gps"](program, base).run()
            get_analysis(build(spec.seed + 1), base)  # moving on releases the streams
            executor = PARADIGMS["gps"](program, config)
            warm = canonical_payload(executor.run())
            rebuilt = executor.analysis.stream_rebuilds
            clear_analysis_cache()
            cold = canonical_payload(PARADIGMS["gps"](build(spec.seed), config).run())
            clear_analysis_cache()
        if warm != cold:
            report.violations.append(Violation(
                "differential-released-streams",
                f"gps ({mode}): payload on rebuilt store streams differs from a cold run",
            ))
        elif not rebuilt and any(  # GPS publishes the stores of non-setup phases
            a.op.is_store
            for phase in program.phases if phase.iteration >= 0
            for k in phase.kernels for a in k.accesses
        ):
            report.violations.append(Violation(
                "differential-released-streams",
                f"gps ({mode}): no store stream was rebuilt after its release",
            ))


def check_memo_free(analysis: ProgramAnalysis) -> "list[Violation]":
    """Every kernel's footprint against a recomputation with no memo at all.

    Page sets follow the ``np.unique`` formula, the L2 rate
    :func:`warm_lru_hits` over the concatenated reads, and the store
    streams and coalescer counts :func:`sm_coalesce`. Returns one
    ``differential-memo-free`` violation per kernel that differs.
    """
    program, gpu = analysis.program, analysis.config.gpu
    num_sets = set_count(gpu.l2_bytes, gpu.cache_block, gpu.l2_assoc)
    lines_per_page = analysis.page_size // CACHE_BLOCK
    violations = []
    for index, kernel in enumerate(program.iter_kernels()):
        footprint = analysis.footprint(kernel)
        expanded = [
            (access, expand_range(access, analysis.buffer_base(access.buffer)))
            for access in kernel.accesses
        ]
        reads = [s for a, s in expanded if not a.op.is_store]
        stores = [s for a, s in expanded if a.op.is_store]
        wrong = []
        for fp, stream in zip(footprint.reads + footprint.stores, reads + stores):
            pages = np.unique(stream.lines // lines_per_page)
            if fp.pages.dtype != np.int64 or not np.array_equal(fp.pages, pages):
                wrong.append(f"pages of {fp.access}")
            if (fp.payload_bytes, fp.txns) != (stream.total_bytes, len(stream)):
                wrong.append(f"payload of {fp.access}")
        for name, got, streams in (
            ("read pages", footprint.read_pages, reads),
            ("store pages", footprint.store_pages, stores),
        ):
            want = [s.lines // lines_per_page for s in streams]
            if not np.array_equal(got, np.unique(np.concatenate(want)) if want else []):
                wrong.append(name)
        if not np.array_equal(
            footprint.all_pages, np.union1d(footprint.read_pages, footprint.store_pages)
        ):
            wrong.append("all pages")
        lines = LineStream.concat(reads).lines
        rate = warm_lru_hits(lines, num_sets, gpu.l2_assoc) / len(lines) if len(lines) else 0.0
        if footprint.l2_hit_rate != rate:
            wrong.append(f"L2 hit rate ({footprint.l2_hit_rate}, not {rate})")
        want_stats = CoalescerStats()
        coalesced = [sm_coalesce(s, want_stats) for s in stores]
        got_streams = [stream for _, stream, _ in analysis.store_streams(kernel)]
        if len(got_streams) != len(coalesced) or not all(
            np.array_equal(got.lines, want.lines)
            and np.array_equal(got.bytes_per_txn, want.bytes_per_txn)
            for got, want in zip(got_streams, coalesced)
        ):
            wrong.append("coalesced store streams")
        stats = analysis.coalescer_stats(kernel)
        if (stats.txns_in, stats.txns_out) != (want_stats.txns_in, want_stats.txns_out):
            wrong.append("coalescer stats")
        if wrong:
            violations.append(Violation(
                "differential-memo-free",
                f"kernel {index} ({kernel.name}) differs from a memo-free "
                f"recomputation in: {'; '.join(wrong)}",
            ))
    return violations


def _compare_path(report: CaseReport, path: str, paradigm: str, payload: str) -> None:
    expected = report.payloads.get(paradigm, {}).get("direct")
    report.payloads.setdefault(paradigm, {})[path] = payload
    if expected is None or payload == expected:
        return
    want, got = _payload_digest(expected), _payload_digest(payload)
    locus = (
        "schedule digests differ: the scheduler diverged"
        if want != got
        else "schedule digests match: result assembly or serialisation diverged"
    )
    report.violations.append(
        Violation(
            f"differential-{path}",
            f"{paradigm}: {path} payload differs from direct ({locus}; "
            f"direct digest {want[:12]}, {path} digest {got[:12]})",
        )
    )


def _jobs_for(specs, paradigms, link) -> "list[tuple[FuzzSpec, str, SimJob]]":
    return [
        (
            spec,
            paradigm,
            SimJob(
                spec.workload_name, paradigm, spec.num_gpus, link,
                spec.scale, spec.iterations,
            ),
        )
        for spec in specs
        for paradigm in paradigms
    ]


def run_differential(
    seeds,
    num_gpus: int = 4,
    scale: float = 0.25,
    iterations: int = 2,
    paradigms=DEFAULT_PARADIGMS,
    link: str = "pcie6",
    use_service: bool = True,
    progress=None,
) -> VerifyReport:
    """Run the full differential conformance harness over fuzz ``seeds``.

    ``link`` must be a link *name* (the service path addresses links by
    name). Mutates process-global state (environment knobs, the runner's
    memo) in scoped blocks and restores it; not safe to run concurrently
    with other simulations in the same process.
    """
    paradigms = tuple(paradigms)
    unknown = [p for p in paradigms if p not in PARADIGMS]
    if unknown:
        raise ValueError(f"unknown paradigms {unknown}; known: {sorted(PARADIGMS)}")
    say = progress or (lambda message: None)
    specs = [FuzzSpec(seed, num_gpus, scale, iterations) for seed in seeds]
    report = VerifyReport(
        cases=[CaseReport(spec) for spec in specs],
        paths=PATHS if use_service else PATHS[:-1],
    )
    by_spec = {case.spec: case for case in report.cases}
    jobs = _jobs_for(specs, paradigms, link)

    say(f"direct: {len(jobs)} simulations + oracle over {len(specs)} programs")
    for case in report.cases:
        _direct_case(case.spec, paradigms, link, case)
        _metamorphic_case(case.spec, paradigms, link, case)
        _warm_cold_case(case.spec, link, case)
        _released_case(case.spec, link, case)

    # Cache path: populate a throwaway persistent cache, drop the memo so
    # the second pass must deserialise from disk, then compare.
    say("cache: cold write + warm read through a scratch disk cache")
    with tempfile.TemporaryDirectory(prefix="repro-verify-cache-") as scratch:
        with _scoped_env(REPRO_NO_CACHE=None, REPRO_CACHE_DIR=scratch):
            clear_run_cache()
            run_many([job for _, _, job in jobs], max_workers=1)
            clear_run_cache()
            for spec, paradigm, job in jobs:
                warm = run_many([job], max_workers=1)[0]
                _compare_path(by_spec[spec], "cache", paradigm, canonical_payload(warm))
            clear_run_cache()

    # Pool path: no cache layers at all, so every job crosses the fork +
    # pickle boundary of a real worker process.
    say(f"pool: {len(jobs)} jobs across a process pool")
    with _scoped_env(REPRO_NO_CACHE="1", REPRO_MAX_WORKERS=None):
        clear_run_cache()
        pooled = run_many([job for _, _, job in jobs], max_workers=2)
        for (spec, paradigm, _), result in zip(jobs, pooled):
            _compare_path(by_spec[spec], "pool", paradigm, canonical_payload(result))
        clear_run_cache()

    if use_service:
        say("service: HTTP round-trip through a live in-process server")
        with _scoped_env(REPRO_NO_CACHE="1", REPRO_MAX_WORKERS="1"):
            clear_run_cache()
            handle = ServiceHandle()
            try:
                client = handle.client()
                submitted = [
                    (spec, paradigm, client.submit(
                        job.workload, paradigm=job.paradigm, gpus=job.num_gpus,
                        link=link, scale=job.scale, iterations=job.iterations,
                    ))
                    for spec, paradigm, job in jobs
                ]
                for spec, paradigm, ticket in submitted:
                    payload = client.wait(ticket["id"], timeout=120.0)
                    wire = json.dumps(
                        payload["result"], sort_keys=True, separators=(",", ":")
                    )
                    _compare_path(by_spec[spec], "service", paradigm, wire)
            finally:
                handle.stop()
                clear_run_cache()

    failed = sum(0 if case.ok else 1 for case in report.cases)
    say(f"verified {len(report.cases)} cases, {failed} failed")
    return report
