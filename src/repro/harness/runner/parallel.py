"""Parallel fan-out for simulation job lists.

The figure grid (8 apps x 6 paradigms x 4 interconnects) is embarrassingly
parallel and fully deterministic, so ``run_many`` dedups the job list
against the cache and fans the remaining work across a process pool. Every
point of a sweep shares its trace program with the other paradigms and
configs of the same app, so the unit of work is the *program*: each job
resolves its program through a per-process memo (one build per program),
and the pool runs one task per program, its jobs back to back, so each
worker builds each program and its analysis once. Worker processes only
*compute* — the parent stores every result into the memo and the
persistent cache, so disk records are written exactly once and never race.
``REPRO_MAX_WORKERS=1``, fewer than :data:`_MIN_PARALLEL_JOBS` pending jobs,
or a single pending program falls back to plain serial execution.

Traced and untraced runs share every step: :func:`compute_job` is the one
compute function both the serial and the pool paths call, and ``traced``
only decides whether it ships the run's engine spans back beside the result.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed

from ...analysis import check_program
from ...obs.span import Span
from ...system.analysis import ANALYSIS_CACHE_SIZE
from ...system.executor import simulate
from ...system.results import SimulationResult
from ...trace.program import TraceProgram
from ...workloads.registry import get_workload
from . import memo
from .fingerprint import SimJob
from .stats import FleetStats

#: Serial fallback threshold: a pool is not worth forking below this many
#: uncached jobs.
_MIN_PARALLEL_JOBS = 3

#: Process-wide fan-out accounting (see :func:`fleet_stats`).
_FLEET = FleetStats()

#: Built programs by :meth:`SimJob.program_key`, least recently used evicted
#: first. Bounded like the analyses built from them.
_PROGRAMS: "OrderedDict[tuple, TraceProgram]" = OrderedDict()
_PROGRAMS_LOCK = threading.Lock()


def fleet_stats() -> FleetStats:
    """This process's live ``run_many`` fan-out counters."""
    return _FLEET


def job_program(job: SimJob) -> TraceProgram:
    """The job's trace program, built once per program key in this process.

    Every job of a sweep over one app shares the returned object, so its
    fingerprint (memoised on the program) and its kernels' cached hashes are
    computed once too. A build that raises caches nothing: the next job
    with that key builds, and raises, again.
    """
    key = job.program_key()
    with _PROGRAMS_LOCK:
        program = _PROGRAMS.get(key)
        if program is not None:
            _PROGRAMS.move_to_end(key)
            return program
    program = get_workload(job.workload).build(
        job.num_gpus, scale=job.scale, iterations=job.iterations
    )
    with _PROGRAMS_LOCK:
        program = _PROGRAMS.setdefault(key, program)
        _PROGRAMS.move_to_end(key)
        while len(_PROGRAMS) > ANALYSIS_CACHE_SIZE:
            _PROGRAMS.popitem(last=False)
    return program


def clear_programs() -> None:
    """Drop every memoised program (``clear_run_cache`` calls this)."""
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()


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
    program once. ``REPRO_NO_ANALYZE=1`` opts out. The program itself comes
    from :func:`job_program`.
    """
    program = job_program(job)
    config = job.resolved_config()
    if not os.environ.get("REPRO_NO_ANALYZE"):
        check_program(program, page_size=config.page_size, paradigm=job.paradigm)
    if not traced:
        return simulate(program, job.paradigm, config), None
    from ...paradigms.registry import make_executor  # local import: avoids a cycle

    executor = make_executor(job.paradigm, program, config)
    result = executor.run()
    return result, executor.engine.spans()


def _compute_jobs(jobs: "list[SimJob]", traced: bool) -> "tuple[int, list[tuple]]":
    """Run ``jobs`` back to back in this process; the pool's one entry point.

    Returns ``(pid, slots)`` with one ``(outcome, wall_clock, spans)`` slot
    per job, where ``outcome`` is the result or the exception the job
    raised: one failing job never takes its neighbours down. Each job goes
    through the module global :func:`compute_job`, so anything wrapping
    that name (tracers, test doubles) sees every job.
    """
    slots: "list[tuple]" = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            result, spans = compute_job(job, traced)
        except Exception as exc:
            slots.append((exc, time.perf_counter() - t0, None))
            continue
        slots.append((result, time.perf_counter() - t0, spans))
    return os.getpid(), slots


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


def _resolve_workers(max_workers: "int | None", pending: int, programs: int) -> int:
    if os.environ.get("REPRO_RUNNER_WORKER"):
        return 1
    if max_workers is None:
        max_workers = env_int("REPRO_MAX_WORKERS", None)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
    if max_workers <= 1 or pending < _MIN_PARALLEL_JOBS or programs < 2:
        return 1
    return min(max_workers, programs)


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

    groups: "dict[tuple, list[str]]" = {}
    for key, job in pending.items():
        groups.setdefault(job.program_key(), []).append(key)

    def settle(group: "list[str]", slots: "list[tuple]", worker: str) -> None:
        for key, (outcome, wall, spans) in zip(group, slots):
            if isinstance(outcome, Exception):
                _FLEET.jobs_failed += 1
                outcomes[key] = (outcome, None)
                continue
            _FLEET.record_job(worker, wall)
            outcomes[key] = (memo.store(key, outcome, pending[key].meta()), spans)

    workers = _resolve_workers(max_workers, len(pending), len(groups))
    if workers <= 1:
        pid, slots = _compute_jobs(list(pending.values()), traced)
        settle(list(pending), slots, f"pid{pid} (serial)")
    else:
        # One task per program, largest first, so the longest tasks start
        # before the short ones fill in behind them.
        by_size = sorted(groups.values(), key=len, reverse=True)
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
            futures = {
                pool.submit(_compute_jobs, [pending[key] for key in group], traced): group
                for group in by_size
            }
            for future in as_completed(futures):
                group = futures[future]
                try:
                    pid, slots = future.result()
                except Exception as exc:  # BrokenProcessPool: the whole task is lost
                    settle(group, [(exc, 0.0, None)] * len(group), "")
                    continue
                settle(group, slots, f"pid{pid}")
    if traced:
        return [outcomes[key] for key in keys]
    return [outcomes[key][0] for key in keys]


def run_many(jobs, max_workers: "int | None" = None) -> "list[SimulationResult]":
    """Run (and memoise) a list of jobs, preserving input order.

    ``jobs`` holds :class:`SimJob` instances or tuples of ``SimJob``'s
    constructor arguments. Duplicate jobs and jobs already present in the
    memory or disk cache are resolved without simulating; the rest run
    across a process pool sized by ``max_workers`` (default: the
    ``REPRO_MAX_WORKERS`` environment knob, else ``os.cpu_count()``), one
    task per trace program, or serially when fewer than
    :data:`_MIN_PARALLEL_JOBS` jobs or a single program are pending.
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
