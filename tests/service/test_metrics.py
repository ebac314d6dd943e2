"""ServiceMetrics: stable key set, latency histograms, the host record in the snapshot."""

import json

from repro.harness.runner import SimJob, clear_run_cache, run_many
from repro.obs import CounterRegistry, Histogram
from repro.service import LATENCY_BUCKETS_S, ServiceMetrics


class TestStableSurface:
    def test_counters_exist_before_any_job(self):
        snapshot = ServiceMetrics().snapshot()
        for name in (
            "service.queue.submitted",
            "service.queue.accepted",
            "service.queue.coalesced",
            "service.queue.cache_hits",
            "service.queue.rejected",
            "service.queue.depth",
            "service.queue.inflight",
            "service.jobs.completed",
            "service.jobs.failed",
            "service.jobs.retried",
            "service.latency.wait_s.count",
            "service.latency.run_s.count",
            "host.results.memory_hits",
            "host.fleet.jobs_computed",
        ):
            assert name in snapshot, name

    def test_snapshot_is_json_safe_and_sorted(self):
        snapshot = ServiceMetrics().snapshot()
        json.dumps(snapshot)
        assert list(snapshot) == sorted(snapshot)

    def test_shares_caller_registry(self):
        registry = CounterRegistry()
        registry.add("dram.read_bytes", 7)
        snapshot = ServiceMetrics(registry).snapshot()
        assert snapshot["dram.read_bytes"] == 7
        assert "service.queue.submitted" in snapshot


class TestLatencyHistograms:
    def test_completion_observes_both_latencies(self):
        metrics = ServiceMetrics()
        metrics.job_completed(wait_s=0.003, run_s=0.7)
        snapshot = metrics.snapshot()
        assert snapshot["service.latency.wait_s.count"] == 1
        assert snapshot["service.latency.wait_s.le_0.005"] == 1
        assert snapshot["service.latency.run_s.le_0.5"] == 0
        assert snapshot["service.latency.run_s.le_1"] == 1

    def test_bucket_bounds_are_increasing(self):
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)

    def test_histogram_cumulative_counts(self):
        histogram = Histogram("t", (1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["le_1"] == 1
        assert snapshot["le_10"] == 2
        assert snapshot["le_100"] == 3
        assert snapshot["le_inf"] == 4
        assert snapshot["count"] == 4
        assert snapshot["sum"] == 555.5


class TestRunnerBridge:
    def test_bridge_reflects_fleet_counters(self):
        clear_run_cache()
        metrics = ServiceMetrics()
        run_many([SimJob("jacobi", "memcpy", 2, scale=0.1, iterations=2)], max_workers=1)
        snapshot = metrics.snapshot()
        assert snapshot["host.fleet.jobs_computed"] == 1
        assert snapshot["host.results.misses"] == 1
        assert snapshot["host.programs.built"] == 1
        clear_run_cache()
        assert metrics.snapshot()["host.fleet.jobs_computed"] == 0
