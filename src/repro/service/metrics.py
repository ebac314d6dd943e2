"""Service-level metrics, published through the obs counter registry.

Everything the service counts lives under the ``service.`` scope of one
:class:`repro.obs.CounterRegistry`, so ``GET /metrics`` is a plain registry
snapshot and the naming convention (dot-separated ``component.metric``)
matches the hardware counters the simulator already exports:

* ``service.queue.*`` — submission outcomes (accepted / coalesced /
  cache_hits / rejected) plus live ``depth`` and ``inflight`` gauges;
* ``service.jobs.*`` — completion outcomes (completed / failed / retried);
* ``service.scheduler.*`` — batch fan-out accounting;
* ``service.latency.*`` — wait (queue) and run (simulate) histograms;
* ``service.runner.*`` — a lazy provider bridging the harness runner's
  :class:`~repro.harness.runner.CacheStats` /
  :class:`~repro.harness.runner.FleetStats` (cache hit ratio, jobs
  computed) into the same snapshot.

Counters are created eagerly so the ``/metrics`` payload exposes a stable
key set from the first scrape, before any job has been submitted.
"""

from __future__ import annotations

from ..harness.runner import cache_stats, fleet_stats
from ..obs import CounterRegistry
from ..obs.registry import Number

#: Latency bucket upper bounds, in seconds (1 ms .. 1 min).
LATENCY_BUCKETS_S = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)

#: Counter names created eagerly under ``service.`` at startup.
_COUNTERS = (
    "queue.submitted",
    "queue.accepted",
    "queue.coalesced",
    "queue.cache_hits",
    "queue.rejected",
    "jobs.completed",
    "jobs.failed",
    "jobs.retried",
    "scheduler.batches",
    "scheduler.batched_jobs",
    "trace.spans_attached",
)


def _runner_bridge() -> "dict[str, Number]":
    """Snapshot of the harness runner's cache/fleet counters."""
    cache = cache_stats()
    fleet = fleet_stats()
    return {
        "cache.hit_rate": cache.hit_rate,
        "cache.hits": cache.hits,
        "cache.lookups": cache.lookups,
        "fleet.jobs_computed": fleet.jobs_computed,
        "fleet.jobs_cached": fleet.jobs_cached,
        "fleet.jobs_failed": fleet.jobs_failed,
        "fleet.wall_clock_s": fleet.wall_clock,
    }


class ServiceMetrics:
    """The service's counter/gauge/histogram surface over one registry."""

    def __init__(self, registry: "CounterRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else CounterRegistry()
        scope = self.registry.scope("service")
        self._scope = scope
        for name in _COUNTERS:
            scope.counter(name)
        scope.gauge("queue.depth", 0)
        scope.gauge("queue.inflight", 0)
        self.wait_latency = scope.histogram("latency.wait_s", LATENCY_BUCKETS_S)
        self.run_latency = scope.histogram("latency.run_s", LATENCY_BUCKETS_S)
        scope.provide("runner", _runner_bridge)

    # -- submission outcomes -------------------------------------------------

    def job_submitted(self) -> None:
        """One ``POST /jobs`` reached the queue (any outcome)."""
        self._scope.add("queue.submitted")

    def job_accepted(self) -> None:
        """A submission enqueued a brand-new simulation."""
        self._scope.add("queue.accepted")

    def job_coalesced(self) -> None:
        """A submission attached to an in-flight job with the same fingerprint."""
        self._scope.add("queue.coalesced")

    def job_cache_hit(self) -> None:
        """A submission was answered straight from the result cache."""
        self._scope.add("queue.cache_hits")

    def job_rejected(self) -> None:
        """A submission bounced off the bounded queue (backpressure)."""
        self._scope.add("queue.rejected")

    def set_queue_gauges(self, depth: int, inflight: int) -> None:
        """Update the live queue-depth and in-flight gauges."""
        self._scope.gauge("queue.depth", depth)
        self._scope.gauge("queue.inflight", inflight)

    # -- execution outcomes --------------------------------------------------

    def batch_started(self, jobs: int) -> None:
        """The scheduler dispatched one batch of ``jobs`` unique simulations."""
        self._scope.add("scheduler.batches")
        self._scope.add("scheduler.batched_jobs", jobs)

    def job_completed(self, wait_s: float, run_s: float) -> None:
        """One job finished successfully; record its latency split."""
        self._scope.add("jobs.completed")
        self.wait_latency.observe(wait_s)
        self.run_latency.observe(run_s)

    def job_failed(self) -> None:
        """One job exhausted its retries and failed."""
        self._scope.add("jobs.failed")

    def job_retried(self) -> None:
        """One job failed an attempt and was requeued."""
        self._scope.add("jobs.retried")

    # -- tracing -------------------------------------------------------------

    def spans_attached(self, count: int) -> None:
        """Engine spans from one run were re-parented under a request trace."""
        self._scope.add("trace.spans_attached", count)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> "dict[str, Number]":
        """The full registry snapshot served at ``GET /metrics``."""
        return self.registry.as_dict()
