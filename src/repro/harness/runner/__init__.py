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
across every job that runs on it. Cache outcomes, fan-outs and pool tasks
are counted in the process's one record of host work,
:data:`repro.obs.host.HOST` (``host.results.*``, ``host.fleet.*``,
``host.pool.tasks``).
``run_many_settled(..., traced=True)`` is the same path with each computed
run's engine spans shipped back beside its result (the service uses it).

Every uncached job's trace is gated through the static analyzer
(:func:`repro.analysis.check_program`) before it simulates, so a workload
generator bug cannot silently corrupt a figure. ``run_simulation`` and
``run_speedup`` are one ``run_many`` call each, so every computed result is
stored, and counted under ``host.fleet.*``, by the same code.

Environment knobs: ``REPRO_NO_CACHE`` (disable the persistent layer),
``REPRO_CACHE_DIR`` (cache directory, default ``.repro-cache/``),
``REPRO_MAX_WORKERS`` (pool width; ``1`` forces serial execution).
"""

from __future__ import annotations

from ...config import LinkConfig, SystemConfig
from ...obs.host import HOST
from ...obs.registry import ScopedRegistry
from ...system.results import SimulationResult
from . import memo
from .disk import DEFAULT_CACHE_DIR, DiskCache
from .fingerprint import MODEL_FINGERPRINT, SimJob, job_key, resolve_link
from .parallel import clear_programs, run_many, run_many_settled

__all__ = [
    "DEFAULT_CACHE_DIR",
    "MODEL_FINGERPRINT",
    "SimJob",
    "cache_stats",
    "clear_disk_cache",
    "clear_run_cache",
    "disk_cache_info",
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
    return run_many([SimJob(workload, paradigm, num_gpus, link, scale, iterations, config)])[0]


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
    single, multi = run_many([
        SimJob(workload, baseline_paradigm, 1, link, scale, iterations, config),
        SimJob(workload, paradigm, num_gpus, link, scale, iterations, config),
    ])
    return single.total_time / multi.total_time


def clear_run_cache() -> None:
    """Drop memoised results and programs (tests that mutate global knobs use this).

    Also zeroes every ``host.*`` count in place (bound handles keep
    counting) and detaches the persistent cache handle so it is re-resolved
    from the environment on next use. Records already on disk are kept; see
    :func:`clear_disk_cache`.
    """
    memo.clear()
    clear_programs()
    HOST.zero()


def cache_stats() -> ScopedRegistry:
    """This process's result-cache counts, the ``host.results`` scope.

    ``as_dict()`` gives ``memory_hits``, ``disk_hits`` and ``misses`` (one
    per lookup), plus ``disk_writes``, ``disk_errors`` and ``evictions``.
    """
    return HOST.scope("host.results")


def clear_disk_cache() -> int:
    """Delete every persistent record; returns how many were removed."""
    disk = memo.disk_cache()
    if disk is None:
        return 0
    return disk.clear()


def disk_cache_info() -> dict:
    """Status of the persistent layer (for ``python -m repro cache show``).

    Lists the directory once; a record removed between the listing and its
    ``stat`` counts as an entry of 0 bytes.
    """
    disk = memo.disk_cache()
    if disk is None:
        return {"enabled": False}
    paths = disk.record_paths()
    size = 0
    for path in paths:
        try:
            size += path.stat().st_size
        except OSError:
            pass
    return {
        "enabled": True,
        "directory": str(disk.directory),
        "entries": len(paths),
        "size_bytes": size,
        "model": MODEL_FINGERPRINT,
    }
