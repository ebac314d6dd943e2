"""Differential conformance: one program, five execution paths, one answer.

The repo has grown five ways to obtain a :class:`SimulationResult` for the
same ``(workload, paradigm, config)``:

1. **direct** — construct the paradigm executor and ``run()`` it;
2. **cache**  — the memoised runner, warm from a persistent disk record
   written by a previous process;
3. **store**  — the memoised runner again, but backed by the versioned
   result lakehouse (:mod:`repro.store`): a cold write commits a snapshot,
   a warm read deserialises through partition files, and the partition
   bytes themselves are compared via the store's canonical payload;
4. **pool**   — ``run_many``'s process-pool fan-out, crossing a fork and a
   pickle boundary;
5. **service** — the live asyncio service, crossing an HTTP and a JSON
   boundary on top.

Simulations are deterministic, so all five must agree *byte-for-byte* on
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
``gps`` over a small write-queue x GPS-TLB grid, run interleaved in one
process that already analysed the program, matches each config run after
the analysis cache is cleared. The five paths above start every program
from clean memo state, so only this relation sees a memo keyed on too
little.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field

from ..config import LinkConfig
from ..harness.runner import SimJob, clear_run_cache, resolve_link, run_many
from ..paradigms import PARADIGMS
from ..system.analysis import clear_analysis_cache
from ..system.results import SimulationResult
from .fuzzer import FuzzSpec, generate_program
from .oracle import Violation, check_execution, check_family, check_result

#: Default paradigm set: the pair each family law needs, plus the bounds.
DEFAULT_PARADIGMS = ("gps", "gps_nosub", "memcpy", "infinite")

#: Execution paths the harness compares, in the order they run.
PATHS = ("direct", "cache", "store", "pool", "service")

#: ``(write-queue entries, GPS-TLB entries)`` of the warm-process relation,
#: in run order: two sizes of each, interleaved so consecutive jobs differ.
WARM_COLD_GRID = ((32, 8), (512, 32), (32, 32), (512, 8))


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
            host="127.0.0.1", port=0, batch_size=8, max_wait_s=0.02,
            max_retries=1, retry_backoff_s=0.01, max_workers=1,
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
        executor.collector.enable()
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
    configs = [
        dataclasses.replace(
            base,
            gps=dataclasses.replace(
                base.gps, write_queue_entries=entries, gps_tlb_entries=tlb
            ),
        )
        for entries, tlb in WARM_COLD_GRID
    ]
    warm = [canonical_payload(PARADIGMS["gps"](program, c).run()) for c in configs]
    for (entries, tlb), config, payload in zip(WARM_COLD_GRID, configs, warm):
        clear_analysis_cache()
        if canonical_payload(PARADIGMS["gps"](program, config).run()) != payload:
            report.violations.append(
                Violation(
                    "differential-warm-cold",
                    f"gps (write queue {entries}, GPS-TLB {tlb}): payload after "
                    "other configs in one process differs from a cold run",
                )
            )
    clear_analysis_cache()


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

    # Store path: the cold-write/warm-read shape again, but through the
    # lakehouse backend — the commit protocol, partition serialisation and
    # snapshot resolution all sit between write and read. The partition
    # bytes are additionally compared directly via the store's reader, so
    # a lossy round-trip is caught even if both runner passes agree.
    say("store: cold commit + warm read through a scratch result lakehouse")
    with tempfile.TemporaryDirectory(prefix="repro-verify-store-") as scratch:
        with _scoped_env(
            REPRO_NO_CACHE=None,
            REPRO_CACHE_DIR=None,
            REPRO_RESULT_BACKEND="store",
            REPRO_STORE_DIR=scratch,
        ):
            clear_run_cache()
            run_many([job for _, _, job in jobs], max_workers=1)
            clear_run_cache()
            for spec, paradigm, job in jobs:
                warm = run_many([job], max_workers=1)[0]
                _compare_path(by_spec[spec], "store", paradigm, canonical_payload(warm))
            clear_run_cache()
            from ..store import ResultStore

            reader = ResultStore.open(scratch, legacy=False).at()
            for spec, paradigm, job in jobs:
                stored = reader.canonical_payload(job.key())
                if stored is None:
                    by_spec[spec].violations.append(
                        Violation(
                            "differential-store",
                            f"{paradigm}: fingerprint {job.key()[:12]} missing "
                            "from the store after a cold run",
                        )
                    )
                else:
                    _compare_path(by_spec[spec], "store", paradigm, stored)

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
