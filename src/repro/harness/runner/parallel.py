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

A call either owns its pool or borrows one. A grid call forks a pool,
sized by ``max_workers``, and joins it before returning. A caller that
keeps a :class:`WorkerPool` (the service does, for its whole life) passes
it as ``pool``: every pending program goes to those warm workers, whatever
the batch size, and several threads may call with one pool at once. Both
send their program groups down the same path.

Traced and untraced runs share every step: :func:`compute_job` is the one
compute function both the serial and the pool paths call, and ``traced``
only decides whether it ships the run's engine spans back beside the result.

Every call is counted under ``host.fleet.*`` (submitted, cached, computed
and failed jobs, compute wall-clock, and per worker ``host.fleet.workers.*``,
named by pool slot ``w0``..``w{n-1}``, or ``serial`` in the calling process)
and every pool task under ``host.pool.tasks``; a task's own ``host.*`` counts
come back beside its results and join the parent's record.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

from ...analysis import check_program
from ...obs import host
from ...obs.host import HOST
from ...obs.span import Span
from ...system.analysis import ANALYSIS_CACHE_SIZE
from ...system.executor import simulate
from ...system.results import SimulationResult
from ...trace.program import TraceProgram
from ...workloads.registry import get_workload
from . import memo
from .fingerprint import SimJob

#: Serial fallback threshold: a pool is not worth forking below this many
#: uncached jobs.
_MIN_PARALLEL_JOBS = 3

_BUILT = HOST.counter("host.programs.built")
_POOL_TASKS = HOST.counter("host.pool.tasks")
_RUNS = HOST.counter("host.fleet.runs")
_SUBMITTED = HOST.counter("host.fleet.jobs_submitted")
_CACHED = HOST.counter("host.fleet.jobs_cached")
_COMPUTED = HOST.counter("host.fleet.jobs_computed")
_FAILED = HOST.counter("host.fleet.jobs_failed")
_WALL = HOST.counter("host.fleet.wall_s")

#: Built programs by :meth:`SimJob.program_key`, least recently used evicted
#: first. Bounded like the analyses built from them.
_PROGRAMS: "OrderedDict[tuple, TraceProgram]" = OrderedDict()
_PROGRAMS_LOCK = threading.Lock()


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
    _BUILT.add()
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
    program once. The gate has no off switch (``repro run-trace
    --no-analyze`` simulates a saved trace file without this function).
    The program itself comes from :func:`job_program`.
    """
    program = job_program(job)
    config = job.resolved_config()
    check_program(program, page_size=config.page_size, paradigm=job.paradigm)
    if not traced:
        return simulate(program, job.paradigm, config), None
    from ...paradigms.registry import make_executor  # local import: avoids a cycle

    executor = make_executor(job.paradigm, program, config)
    result = executor.run()
    return result, executor.engine.spans()


#: This process's name in ``host.fleet.workers.*``: a pool worker's slot
#: (``w0``..) once :func:`_worker_init` has run, else ``serial``.
_WORKER = "serial"


def _compute_jobs(jobs: "list[SimJob]", traced: bool) -> "tuple[str, list[tuple], dict]":
    """Run ``jobs`` back to back in this process; the pool's one entry point.

    Returns ``(worker, slots, counts)`` with one ``(outcome, wall_clock, spans)``
    slot per job, where ``outcome`` is the result or the exception the job
    raised: one failing job never takes its neighbours down. ``counts`` is
    the ``host.*`` work the jobs did (:func:`repro.obs.host.delta`), which a
    pool's parent adds to its own record. Each job goes through the module
    global :func:`compute_job`, so anything wrapping that name (tracers,
    test doubles) sees every job.
    """
    before = HOST.as_dict()
    slots: "list[tuple]" = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            result, spans = compute_job(job, traced)
        except Exception as exc:
            slots.append((exc, time.perf_counter() - t0, None))
            continue
        slots.append((result, time.perf_counter() - t0, spans))
    return _WORKER, slots, host.delta(before)


def _worker_init(slots) -> None:
    """Take the next free slot name of this worker's pool; never write the disk cache."""
    global _WORKER
    _WORKER = slots.get()
    # Workers only compute: the parent stores every result.
    os.environ["REPRO_NO_CACHE"] = "1"


def _open_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` forked processes, named ``w0``..``w{workers-1}``.

    Fork, stated: a worker inherits the parent's imports, where spawn or
    forkserver would import the simulator again in each one. Each slot's
    ``host.fleet.workers.*`` names exist from the start, so the record's
    names stay the same however many pools a process opens.
    """
    context = multiprocessing.get_context("fork")
    slots = context.SimpleQueue()
    for slot in range(workers):
        slots.put(f"w{slot}")
        HOST.counter(f"host.fleet.workers.w{slot}.jobs")
        HOST.counter(f"host.fleet.workers.w{slot}.wall_s")
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_worker_init, initargs=(slots,)
    )


class WorkerPool:
    """A warm pool one caller keeps across :func:`run_many_settled` calls.

    The workers fork on the first :meth:`submit`, not at construction, and
    keep their program and analysis memos from call to call. The fork runs
    in the submitting thread, which holds no lock a worker takes; the one
    lock every thread shares, ``HOST``'s, is made afresh in each child
    (:mod:`repro.obs.registry`). A worker lost
    mid-task breaks the whole pool (every task on it fails with
    ``BrokenProcessPool``); the next :meth:`submit` then forks a fresh one.
    :meth:`close` joins the workers; a later submit raises ``RuntimeError``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("a worker pool needs at least 2 workers")
        self.workers = workers
        self._executor: "ProcessPoolExecutor | None" = None
        self._closed = False
        self._lock = threading.Lock()

    def _current(self, broken: "ProcessPoolExecutor | None" = None) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is None or self._executor is broken:
                if broken is not None:
                    # Its workers are already gone; join its manager thread.
                    # Under the lock, so only one of the threads that found
                    # it broken shuts it down.
                    broken.shutdown(wait=True)
                self._executor = _open_pool(self.workers)
            return self._executor

    def submit(self, fn, *args):
        """Submit one task, on a fresh pool if the current one is broken."""
        executor = self._current()
        try:
            return executor.submit(fn, *args)
        except BrokenProcessPool:
            return self._current(broken=executor).submit(fn, *args)

    def close(self) -> None:
        """Cancel queued tasks, wait for running ones and join every worker."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def env_int(name: str, default: "int | None") -> "int | None":
    """Integer value of environment variable ``name``; ``default`` if unset or empty.

    A malformed value raises ``ValueError`` naming the variable and the value.
    """
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def pool_width(max_workers: "int | None" = None) -> int:
    """``max_workers``, else ``REPRO_MAX_WORKERS``, else the CPU count; 1 means serial.

    A process started by :mod:`multiprocessing` (a pool worker, under any
    start method) always gets 1: a worker never forks a pool of its own.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    if max_workers is None:
        max_workers = env_int("REPRO_MAX_WORKERS", None)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
    return max(max_workers, 1)


def _resolve_workers(max_workers: "int | None", pending: int, programs: int) -> int:
    """Pool width for ``pending`` jobs over ``programs`` programs; 1 means serial."""
    width = pool_width(max_workers)
    if pending < _MIN_PARALLEL_JOBS or programs < 2:
        return 1
    return min(width, programs)


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


def run_many_settled(
    jobs,
    max_workers: "int | None" = None,
    traced: bool = False,
    pool: "WorkerPool | None" = None,
) -> list:
    """Run a job list, returning a per-job outcome instead of raising.

    Same caching, dedup, and fan-out behaviour as :func:`run_many`, but a
    job whose simulation raises (analysis gate, workload bug, worker crash)
    yields its exception in that slot rather than aborting the whole batch.
    Duplicate jobs share one outcome — including a shared failure. Callers
    that need per-job retry (the service scheduler) use this entry point;
    everyone else wants :func:`run_many`.

    With ``pool``, every pending program runs on that borrowed
    :class:`WorkerPool` and ``max_workers`` is ignored; without one, the
    call forks a pool of its own when the batch is worth it and joins it
    before returning.

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

    _RUNS.add()
    _SUBMITTED.add(len(jobs))
    _CACHED.add(len(jobs) - len(pending))

    groups: "dict[tuple, list[str]]" = {}
    for key, job in pending.items():
        groups.setdefault(job.program_key(), []).append(key)

    def settle(group: "list[str]", slots: "list[tuple]", worker: str) -> None:
        for key, (outcome, wall, spans) in zip(group, slots):
            if isinstance(outcome, Exception):
                _FAILED.add()
                outcomes[key] = (outcome, None)
                continue
            _COMPUTED.add()
            _WALL.add(wall)
            HOST.add(f"host.fleet.workers.{worker}.jobs")
            HOST.add(f"host.fleet.workers.{worker}.wall_s", wall)
            outcomes[key] = (memo.store(key, outcome, pending[key].meta()), spans)

    # One task per program, largest first, so the longest tasks start before
    # the short ones fill in behind them. The serial path walks the same
    # order, so each program's jobs run back to back there too and a union
    # of more programs than the program memo holds builds each one once.
    by_size = sorted(groups.values(), key=len, reverse=True)
    if pool is not None:
        _fan_out(pool, by_size, pending, traced, settle)
    elif (workers := _resolve_workers(max_workers, len(pending), len(groups))) > 1:
        with _open_pool(workers) as owned:
            _fan_out(owned, by_size, pending, traced, settle)
    else:
        order = [key for group in by_size for key in group]
        worker, slots, _ = _compute_jobs([pending[key] for key in order], traced)
        settle(order, slots, worker)
    if traced:
        return [outcomes[key] for key in keys]
    return [outcomes[key][0] for key in keys]


def _fan_out(pool, groups: "list[list[str]]", pending: dict, traced: bool, settle) -> None:
    """Run each program group as one task on ``pool``, settling as tasks finish.

    A task that cannot be submitted, or whose worker is lost, fails every
    job of its group with that exception; the other groups are untouched.
    """
    futures = {}
    for group in groups:
        try:
            futures[pool.submit(_compute_jobs, [pending[key] for key in group], traced)] = group
        except RuntimeError as exc:  # BrokenProcessPool, or a pool already shut down
            settle(group, [(exc, 0.0, None)] * len(group), "")
    _POOL_TASKS.add(len(futures))
    for future in as_completed(futures):
        group = futures[future]
        try:
            worker, slots, counts = future.result()
        except Exception as exc:  # BrokenProcessPool: the whole task is lost
            settle(group, [(exc, 0.0, None)] * len(group), "")
            continue
        host.merge(counts)
        settle(group, slots, worker)


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
