"""Memoised, parallel, persistent simulation runner shared by all experiments.

Simulations are deterministic, so every (workload, paradigm, config) job is
cached at two levels:

* an in-process memo (same-object hits — Figure 8's single-GPU baselines are
  Figure 13's too, and the benchmark suite runs every figure in one process);
* a persistent JSON cache under ``.repro-cache/`` keyed by a *complete*
  canonical config fingerprint plus a model-version string, so repeat CLI
  and benchmark invocations skip identical simulations across processes.

``run_many`` fans uncached jobs across a process pool, one task per trace
program; the figure drivers in :mod:`repro.harness.experiments` submit their
whole grids through it. Each process builds a program once and shares it
across every job that runs on it.
``run_many_settled(..., traced=True)`` is the same path with each computed
run's engine spans shipped back beside its result (the service uses it).

Every uncached job's trace is gated through the static analyzer
(:func:`repro.analysis.check_program`) before it simulates, so a workload
generator bug cannot silently corrupt a figure.

Environment knobs: ``REPRO_NO_CACHE`` (disable the persistent layer),
``REPRO_CACHE_DIR`` (cache directory, default ``.repro-cache/``),
``REPRO_MAX_WORKERS`` (pool width; ``1`` forces serial execution),
``REPRO_NO_ANALYZE`` (skip the pre-simulation static analysis gate).
"""

from __future__ import annotations

from ...config import LinkConfig, SystemConfig
from ...system.results import SimulationResult
from . import memo
from .disk import DEFAULT_CACHE_DIR, DiskCache
from .fingerprint import MODEL_FINGERPRINT, SimJob, job_key, resolve_link
from .parallel import (
    clear_programs,
    compute_job,
    fleet_stats,
    run_many,
    run_many_settled,
)
from .stats import CacheStats, FleetStats, WorkerStats

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "FleetStats",
    "MODEL_FINGERPRINT",
    "SimJob",
    "WorkerStats",
    "cache_stats",
    "clear_disk_cache",
    "clear_run_cache",
    "disk_cache_info",
    "fleet_stats",
    "job_key",
    "resolve_link",
    "run_many",
    "run_many_settled",
    "run_simulation",
    "run_speedup",
]


def run_simulation(
    workload: str,
    paradigm: str,
    num_gpus: int,
    link: "str | LinkConfig" = "pcie6",
    scale: float = 1.0,
    iterations: int = 16,
    config: "SystemConfig | None" = None,
) -> SimulationResult:
    """Run (and memoise) one simulation."""
    job = SimJob(workload, paradigm, num_gpus, link, scale, iterations, config)
    key = job.key()
    cached = memo.lookup(key)
    if cached is not None:
        return cached
    result, _ = compute_job(job)
    return memo.store(key, result, job.meta())


def run_speedup(
    workload: str,
    paradigm: str,
    num_gpus: int,
    link: "str | LinkConfig" = "pcie6",
    scale: float = 1.0,
    iterations: int = 16,
    config: "SystemConfig | None" = None,
    baseline_paradigm: str = "memcpy",
) -> float:
    """Strong-scaling speedup over the single-GPU baseline (memoised).

    The baseline runs ``baseline_paradigm`` on one GPU. On a single GPU no
    communication happens, so every non-fault-based paradigm produces the
    same time and ``memcpy`` is a fair default; fault-based UM still pays
    first-touch population costs and would *not* be a neutral baseline —
    which is why the choice is an explicit kwarg rather than an assumption.
    """
    single = run_simulation(workload, baseline_paradigm, 1, link, scale, iterations, config)
    multi = run_simulation(workload, paradigm, num_gpus, link, scale, iterations, config)
    return single.total_time / multi.total_time


def clear_run_cache() -> None:
    """Drop memoised results and programs (tests that mutate global knobs use this).

    Also zeroes the :class:`CacheStats` and :class:`FleetStats` counters and
    detaches the persistent cache handle so it is re-resolved from the
    environment on next use. Records already on disk are kept; see
    :func:`clear_disk_cache`.
    """
    memo.clear()
    clear_programs()
    fleet_stats().reset()


def cache_stats() -> CacheStats:
    """This process's live cache counters."""
    return memo.stats()


def clear_disk_cache() -> int:
    """Delete every persistent record; returns how many were removed."""
    disk = memo.disk_cache()
    if disk is None:
        return 0
    return disk.clear()


def disk_cache_info() -> dict:
    """Status of the persistent layer (for ``python -m repro cache show``).

    One directory scan total: ``entries`` and ``size_bytes`` share the
    cache's memoised scan instead of walking the directory twice.
    """
    disk = memo.disk_cache()
    if disk is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "directory": str(disk.directory),
        "entries": disk.entry_count(),
        "size_bytes": disk.size_bytes(),
        "model": MODEL_FINGERPRINT,
    }
