"""Parallel fan-out for simulation job lists.

The figure grid (8 apps x 6 paradigms x 4 interconnects) is embarrassingly
parallel and fully deterministic, so ``run_many`` dedups the job list
against the cache and fans the remaining work across a process pool. Worker
processes only *compute* — the parent stores every result into the memo and
the persistent cache, so disk records are written exactly once and never
race. ``REPRO_MAX_WORKERS=1`` (or a single pending job) falls back to plain
serial execution.

Traced and untraced runs share every step: :func:`compute_job` is the one
compute function both the serial and the pool paths call, and ``traced``
only decides whether it ships the run's engine spans back beside the result.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ...analysis import check_program
from ...obs.span import Span
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


def compute_job(
    job: SimJob, traced: bool = False
) -> "tuple[SimulationResult, list[Span] | None]":
    """Run one job's simulation, bypassing every cache layer.

    Returns ``(result, spans)``. With ``traced`` on, ``spans`` is the run's
    engine span list (:meth:`Engine.spans`, pickled back from a worker); it
    travels **out-of-band** beside the result, never inside
    ``SimulationResult``, which must stay byte-identical across the
    direct/cache/store/pool/service paths. Untraced, ``spans`` is ``None``.

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
    if not traced:
        return simulate(program, job.paradigm, config), None
    from ...paradigms.registry import make_executor  # local import: avoids a cycle

    executor = make_executor(job.paradigm, program, config)
    result = executor.run()
    return result, executor.engine.spans()


def _timed_compute(
    job: SimJob, traced: bool
) -> "tuple[int, float, SimulationResult, list[Span] | None]":
    """Pool entry point: compute one job, returning (pid, wall_clock, result, spans)."""
    t0 = time.perf_counter()
    result, spans = compute_job(job, traced)
    return os.getpid(), time.perf_counter() - t0, result, spans


def _worker_init() -> None:
    # Workers never consult the caches and must never recursively fork.
    os.environ["REPRO_RUNNER_WORKER"] = "1"
    os.environ["REPRO_NO_CACHE"] = "1"


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


def run_many_settled(jobs, max_workers: "int | None" = None, traced: bool = False) -> list:
    """Run a job list, returning a per-job outcome instead of raising.

    Same caching, dedup, and fan-out behaviour as :func:`run_many`, but a
    job whose simulation raises (analysis gate, workload bug, worker crash)
    yields its exception in that slot rather than aborting the whole batch.
    Duplicate jobs share one outcome — including a shared failure. Callers
    that need per-job retry (the service scheduler) use this entry point;
    everyone else wants :func:`run_many`.

    With ``traced`` on, each slot is an ``(outcome, spans)`` pair instead:
    ``spans`` is the run's engine span list from :func:`compute_job`, or
    ``None`` when the outcome came from a cache or is an exception — cached
    results never carry spans, keeping the byte-identical result invariant.
    The traced service scheduler uses this to re-parent engine spans under
    request traces without touching ``SimulationResult``.
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
            outcomes[key] = (cached, None)
        else:
            pending[key] = job

    _FLEET.runs += 1
    _FLEET.jobs_submitted += len(jobs)
    _FLEET.jobs_cached += len(jobs) - len(pending)

    workers = _resolve_workers(max_workers, len(pending))
    if workers <= 1:
        for key, job in pending.items():
            t0 = time.perf_counter()
            try:
                result, spans = compute_job(job, traced)
            except Exception as exc:
                _FLEET.jobs_failed += 1
                outcomes[key] = (exc, None)
                continue
            _FLEET.record_job(f"pid{os.getpid()} (serial)", time.perf_counter() - t0)
            outcomes[key] = (memo.store(key, result, job.meta()), spans)
    elif pending:
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
            futures = {
                pool.submit(_timed_compute, job, traced): key for key, job in pending.items()
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures[future]
                    try:
                        pid, wall, result, spans = future.result()
                    except Exception as exc:  # includes BrokenProcessPool
                        _FLEET.jobs_failed += 1
                        outcomes[key] = (exc, None)
                        continue
                    _FLEET.record_job(f"pid{pid}", wall)
                    outcomes[key] = (memo.store(key, result, pending[key].meta()), spans)
    if traced:
        return [outcomes[key] for key in keys]
    return [outcomes[key][0] for key in keys]


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
