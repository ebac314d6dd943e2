"""Cache and fleet observability for the memoised runner.

:class:`CacheStats` counts cache-layer outcomes per lookup;
:class:`FleetStats` aggregates ``run_many`` fan-outs — how many jobs each
worker process computed and how much wall-clock the computation took —
printed by ``python -m repro figure`` after its grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters for one process's runner cache (memory + disk layers).

    A *lookup* is one ``run_simulation``/``run_many`` job resolution; it
    lands in exactly one of ``memory_hits``, ``disk_hits``, or ``misses``.
    ``evictions`` counts persistent entries removed (``cache clear`` or
    corrupt records dropped on read).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    disk_writes: int = 0
    evictions: int = 0
    disk_errors: int = 0

    @property
    def hits(self) -> int:
        """Lookups served from either cache layer."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total job resolutions observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache; 0.0 before any lookup."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of lookups served from the persistent layer."""
        if self.lookups == 0:
            return 0.0
        return self.disk_hits / self.lookups

    def reset(self) -> None:
        """Zero every counter (``clear_run_cache`` calls this)."""
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.disk_writes = 0
        self.evictions = 0
        self.disk_errors = 0

    def as_dict(self) -> dict:
        """Counters plus derived rates, JSON-safe."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "disk_writes": self.disk_writes,
            "evictions": self.evictions,
            "disk_errors": self.disk_errors,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "disk_hit_rate": self.disk_hit_rate,
        }

    def report(self) -> str:
        """One-line human summary (the CLI prints this after figure runs)."""
        return (
            f"{self.hits}/{self.lookups} hits "
            f"({self.memory_hits} memory, {self.disk_hits} disk, "
            f"{self.misses} misses; {100.0 * self.hit_rate:.0f}% hit rate)"
        )


@dataclass
class WorkerStats:
    """Per-worker-process accounting of one or more ``run_many`` fan-outs."""

    worker: str
    jobs: int = 0
    wall_clock: float = 0.0

    def as_dict(self) -> dict:
        """JSON-safe representation."""
        return {"worker": self.worker, "jobs": self.jobs, "wall_clock_s": self.wall_clock}


@dataclass
class FleetStats:
    """Aggregate view of every ``run_many`` fan-out this process issued.

    ``jobs_cached`` counts submissions resolved without simulating (memo or
    disk hit, plus in-batch duplicates); ``jobs_computed`` counts actual
    simulations; ``jobs_failed`` counts simulations that raised (surfaced
    per-job by ``run_many_settled``); ``wall_clock`` sums per-job compute
    time across workers (it exceeds elapsed time when the pool runs wide).
    """

    runs: int = 0
    jobs_submitted: int = 0
    jobs_cached: int = 0
    jobs_computed: int = 0
    jobs_failed: int = 0
    wall_clock: float = 0.0
    workers: dict = field(default_factory=dict)

    def record_job(self, worker: str, wall_clock: float) -> None:
        """Account one computed job to one worker."""
        stats = self.workers.get(worker)
        if stats is None:
            stats = self.workers[worker] = WorkerStats(worker=worker)
        stats.jobs += 1
        stats.wall_clock += wall_clock
        self.jobs_computed += 1
        self.wall_clock += wall_clock

    def reset(self) -> None:
        """Zero everything (``clear_run_cache`` calls this)."""
        self.runs = 0
        self.jobs_submitted = 0
        self.jobs_cached = 0
        self.jobs_computed = 0
        self.jobs_failed = 0
        self.wall_clock = 0.0
        self.workers = {}

    def as_dict(self) -> dict:
        """JSON-safe representation, workers sorted by name."""
        return {
            "runs": self.runs,
            "jobs_submitted": self.jobs_submitted,
            "jobs_cached": self.jobs_cached,
            "jobs_computed": self.jobs_computed,
            "jobs_failed": self.jobs_failed,
            "wall_clock_s": self.wall_clock,
            "workers": [self.workers[w].as_dict() for w in sorted(self.workers)],
        }

    def report(self) -> str:
        """Multi-line human summary, as ``python -m repro figure`` prints it."""
        failed = f", {self.jobs_failed} failed" if self.jobs_failed else ""
        lines = [
            f"fleet: {self.runs} run_many call(s), {self.jobs_submitted} jobs submitted "
            f"({self.jobs_cached} cached, {self.jobs_computed} computed{failed}, "
            f"{self.wall_clock:.2f}s compute wall-clock)"
        ]
        for name in sorted(self.workers):
            w = self.workers[name]
            lines.append(f"  {w.worker}: {w.jobs} job(s), {w.wall_clock:.2f}s")
        return "\n".join(lines)
