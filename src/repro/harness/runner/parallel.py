"""Parallel fan-out for simulation job lists.

The figure grid (8 apps x 6 paradigms x 4 interconnects) is embarrassingly
parallel and fully deterministic, so ``run_many`` dedups the job list
against the cache and fans the remaining work across a process pool. Worker
processes only *compute* — the parent stores every result into the memo and
the persistent cache, so disk records are written exactly once and never
race. ``REPRO_MAX_WORKERS=1`` (or a single pending job) falls back to plain
serial execution.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ...analysis import check_program
from ...system.executor import simulate
from ...system.results import SimulationResult
from ...workloads.registry import get_workload
from . import memo
from .fingerprint import SimJob
from .stats import FleetStats

#: Serial fallback threshold: a pool is not worth forking below this many
#: uncached jobs.
_MIN_PARALLEL_JOBS = 3

#: Process-wide fan-out accounting (see :func:`fleet_stats`).
_FLEET = FleetStats()


def fleet_stats() -> FleetStats:
    """This process's live ``run_many`` fan-out counters."""
    return _FLEET


#: Thread-local span-capture channel between :func:`compute_job_traced` and
#: :func:`compute_job`. When a sink list is installed, ``compute_job`` runs
#: with its collector force-enabled and deposits ``(span_dicts, evicted)``
#: there — keeping one compute path so test hooks and future wrappers apply
#: to traced and untraced runs alike.
_trace_capture = threading.local()


def compute_job(job: SimJob) -> SimulationResult:
    """Run one job's simulation, bypassing every cache layer.

    The trace is gated through the static analyzer first: a program whose
    diagnostics mark the job's *paradigm* unsafe (races, memory-model
    violations, stale-read hazards whose witness applies to it) raises
    :class:`repro.errors.AnalysisError` instead of silently corrupting
    every figure computed from it. The gate is per-paradigm — a stale-read
    hazard blocks ``gps`` but not ``memcpy`` — and the underlying analysis
    is cached by program fingerprint, so a paradigm sweep analyzes each
    program once. ``REPRO_NO_ANALYZE=1`` opts out.
    """
    program = get_workload(job.workload).build(
        job.num_gpus, scale=job.scale, iterations=job.iterations
    )
    config = job.resolved_config()
    if not os.environ.get("REPRO_NO_ANALYZE"):
        check_program(program, page_size=config.page_size, paradigm=job.paradigm)
    sink = getattr(_trace_capture, "sink", None)
    if sink is None:
        return simulate(program, job.paradigm, config)
    from ...paradigms.registry import make_executor  # local import: avoids a cycle

    executor = make_executor(job.paradigm, program, config)
    executor.collector.enable()
    result = executor.run()
    sink.append(([span.to_dict() for span in executor.collector.spans], executor.collector.evicted))
    return result


def compute_job_traced(job: SimJob) -> "tuple[SimulationResult, list[dict] | None, int]":
    """Run one job with span tracing forced on, returning the spans too.

    Same analysis gate and simulation as :func:`compute_job`, but the
    executor's :class:`~repro.obs.collector.TraceCollector` is enabled
    explicitly (overriding the worker's ``REPRO_NO_TRACE=1``) and the
    engine's spans travel back **out-of-band** as ``Span.to_dict`` payloads
    alongside the result — never inside ``SimulationResult`` itself, which
    must stay byte-identical across the direct/cache/store/pool/service paths.
    Returns ``(result, span_dicts, evicted_span_count)``.
    """
    _trace_capture.sink = sink = []
    try:
        result = compute_job(job)
    finally:
        _trace_capture.sink = None
    spans, evicted = sink[0] if sink else (None, 0)
    return result, spans, evicted


def _timed_compute(job: SimJob) -> "tuple[int, float, SimulationResult]":
    """Pool entry point: compute one job, returning (pid, wall_clock, result)."""
    t0 = time.perf_counter()
    result = compute_job(job)
    return os.getpid(), time.perf_counter() - t0, result


def _timed_compute_traced(
    job: SimJob,
) -> "tuple[int, float, SimulationResult, list[dict], int]":
    """Traced pool entry point: (pid, wall_clock, result, spans, evicted)."""
    t0 = time.perf_counter()
    result, spans, evicted = compute_job_traced(job)
    return os.getpid(), time.perf_counter() - t0, result, spans, evicted


def _worker_init() -> None:
    # Workers never consult the caches, must never recursively fork, and
    # skip span materialisation (the parent only receives the result dict).
    os.environ["REPRO_RUNNER_WORKER"] = "1"
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_NO_TRACE"] = "1"


def env_int(name: str, default: "int | None") -> "int | None":
    """Integer value of environment variable ``name``; ``default`` if unset or empty.

    A malformed value raises ``ValueError`` naming the variable and the value.
    """
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _resolve_workers(max_workers: "int | None", pending: int) -> int:
    if os.environ.get("REPRO_RUNNER_WORKER"):
        return 1
    if max_workers is None:
        max_workers = env_int("REPRO_MAX_WORKERS", None)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
    if max_workers <= 1 or pending < _MIN_PARALLEL_JOBS:
        return 1
    return min(max_workers, pending)


def _job_keys(jobs: "list[SimJob]") -> "list[str]":
    """Fingerprint each job, hashing every *distinct* job exactly once.

    ``SimJob.key()`` memoises on the instance, but a grid routinely repeats
    the same job as separate instances (every figure shares its single-GPU
    baselines) — and each repeat used to pay a full ``dataclasses.asdict``
    + JSON + SHA-256 pass over the ~25-field config. Jobs are frozen and
    hashable, so duplicates within one submission share one computation.
    """
    keys: "list[str]" = []
    key_of: "dict[SimJob, str]" = {}
    for job in jobs:
        key = key_of.get(job)
        if key is None:
            key = key_of[job] = job.key()
        keys.append(key)
    return keys


#: One settled slot of a traced run: the outcome, the engine spans shipped
#: back from the worker (``None`` for cache hits and failures), and the
#: collector's evicted-span count for that run.
TracedOutcome = "tuple[SimulationResult | Exception, list[dict] | None, int]"


def _settled(jobs, max_workers: "int | None", traced: bool) -> "list[tuple]":
    """Shared dedup + fan-out engine behind the two ``*_settled`` fronts.

    Returns one ``(outcome, spans, evicted)`` slot per input job; untraced
    runs always carry ``(None, 0)`` in the trailing positions.
    """
    jobs = [job if isinstance(job, SimJob) else SimJob(*job) for job in jobs]
    keys = _job_keys(jobs)
    outcomes: "dict[str, tuple]" = {}
    pending: "dict[str, SimJob]" = {}
    for job, key in zip(jobs, keys):
        if key in outcomes or key in pending:
            continue
        cached = memo.lookup(key)
        if cached is not None:
            outcomes[key] = (cached, None, 0)
        else:
            pending[key] = job

    _FLEET.runs += 1
    _FLEET.jobs_submitted += len(jobs)
    _FLEET.jobs_cached += len(jobs) - len(pending)

    workers = _resolve_workers(max_workers, len(pending))
    if workers <= 1:
        for key, job in pending.items():
            t0 = time.perf_counter()
            spans: "list[dict] | None" = None
            evicted = 0
            try:
                if traced:
                    result, spans, evicted = compute_job_traced(job)
                else:
                    result = compute_job(job)
            except Exception as exc:
                _FLEET.jobs_failed += 1
                outcomes[key] = (exc, None, 0)
                continue
            _FLEET.record_job(f"pid{os.getpid()} (serial)", time.perf_counter() - t0)
            outcomes[key] = (memo.store(key, result, job.meta()), spans, evicted)
    elif pending:
        entry = _timed_compute_traced if traced else _timed_compute
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
            futures = {pool.submit(entry, job): key for key, job in pending.items()}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures[future]
                    try:
                        if traced:
                            pid, wall, result, spans, evicted = future.result()
                        else:
                            pid, wall, result = future.result()
                            spans, evicted = None, 0
                    except Exception as exc:  # includes BrokenProcessPool
                        _FLEET.jobs_failed += 1
                        outcomes[key] = (exc, None, 0)
                        continue
                    _FLEET.record_job(f"pid{pid}", wall)
                    outcomes[key] = (
                        memo.store(key, result, pending[key].meta()),
                        spans,
                        evicted,
                    )
    return [outcomes[key] for key in keys]


def run_many_settled(
    jobs, max_workers: "int | None" = None
) -> "list[SimulationResult | Exception]":
    """Run a job list, returning a per-job outcome instead of raising.

    Same caching, dedup, and fan-out behaviour as :func:`run_many`, but a
    job whose simulation raises (analysis gate, workload bug, worker crash)
    yields its exception in that slot rather than aborting the whole batch.
    Duplicate jobs share one outcome — including a shared failure. Callers
    that need per-job retry (the service scheduler) use this entry point;
    everyone else wants :func:`run_many`.
    """
    return [outcome for outcome, _, _ in _settled(jobs, max_workers, traced=False)]


def run_many_traced_settled(jobs, max_workers: "int | None" = None) -> "list":
    """Like :func:`run_many_settled`, but each slot also ships engine spans.

    Returns ``(outcome, spans, evicted)`` triples: ``spans`` is the run's
    engine span list as ``Span.to_dict`` payloads (``None`` when the
    outcome came from a cache or is an exception — cached results never
    carry spans, keeping the byte-identical result invariant), and
    ``evicted`` is the run collector's dropped-span count. The traced
    service scheduler uses this to re-parent engine spans under request
    traces without touching ``SimulationResult``.
    """
    return _settled(jobs, max_workers, traced=True)


def run_many(jobs, max_workers: "int | None" = None) -> "list[SimulationResult]":
    """Run (and memoise) a list of jobs, preserving input order.

    ``jobs`` holds :class:`SimJob` instances or tuples of ``SimJob``'s
    constructor arguments. Duplicate jobs and jobs already present in the
    memory or disk cache are resolved without simulating; the rest run
    across a process pool sized by ``max_workers`` (default: the
    ``REPRO_MAX_WORKERS`` environment knob, else ``os.cpu_count()``).
    Identical results are returned for identical jobs regardless of which
    path produced them — simulations are deterministic and the serialised
    form round-trips exactly. The first failing job's exception propagates;
    use :func:`run_many_settled` for per-job outcomes.
    """
    outcomes = run_many_settled(jobs, max_workers)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes  # type: ignore[return-value]
