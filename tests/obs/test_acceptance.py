"""End-to-end acceptance tests for the observability layer.

A 4-GPU GPS-vs-memcpy run exports a Chrome-trace whose per-resource spans
reproduce the engine's scheduled tasks exactly, and the hardware-counter snapshot (coalescer, GPS-TLB, page table,
link egress, DRAM) survives the disk-cache round-trip.
"""

import json

import pytest

import repro
from repro.obs import chrome_trace
from tests.conftest import build


@pytest.fixture(scope="module", params=["gps", "memcpy"])
def traced_run(request):
    """One 4-GPU run per paradigm: (paradigm, executor, result)."""
    config = repro.default_system(4)
    executor = repro.make_executor(
        request.param, build("jacobi", num_gpus=4, iterations=2), config
    )
    result = executor.run()
    return request.param, executor, result


class TestTraceMatchesTimeline:
    def test_same_resources_starts_and_ends(self, traced_run):
        _, executor, _ = traced_run
        tracks = {}
        payload = chrome_trace(executor.engine.spans())
        tid_names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for event in payload["traceEvents"]:
            if event["ph"] != "X" or event["dur"] <= 0:
                continue
            tracks.setdefault(tid_names[event["tid"]], []).append(
                (event["name"], event["ts"] / 1e6, (event["ts"] + event["dur"]) / 1e6)
            )
        from_schedule = {}
        for task in executor.engine.tasks():
            if task.resource is not None and task.duration > 0:
                from_schedule.setdefault(task.resource.name, []).append(
                    (task.name, task.start, task.end)
                )
        assert set(tracks) == set(from_schedule)
        for resource, expected in from_schedule.items():
            got = sorted(tracks[resource], key=lambda t: (t[1], t[2], t[0]))
            want = sorted(expected, key=lambda t: (t[1], t[2], t[0]))
            assert len(got) == len(want)
            for (gn, gs, ge), (wn, ws, we) in zip(got, want):
                assert gn == wn
                assert gs == pytest.approx(ws, abs=1e-12)
                assert ge == pytest.approx(we, abs=1e-12)

    def test_gps_trace_has_overlap_memcpy_does_not(self, traced_run):
        paradigm, executor, _ = traced_run
        spans = executor.engine.spans()
        kernel_windows = [
            (s.start, s.end) for s in spans if s.category == "kernel" and s.duration > 0
        ]
        transfer_spans = [s for s in spans if s.category == "transfer" and s.duration > 0]
        overlapping = sum(
            1
            for t in transfer_spans
            if any(t.start < k_end and k_start < t.end for k_start, k_end in kernel_windows)
        )
        if paradigm == "gps":
            assert overlapping > 0, "GPS publishes should overlap kernels"
        else:
            assert overlapping == 0, "memcpy broadcasts must trail the kernels"


class TestHardwareCounters:
    REQUIRED_GPS = [
        "gpu0.sm_coalescer.txns_in",
        "gpu0.gps_tlb.misses",
        "gpu0.gps_tlb.hits",
        "gps_page_table.lookups",
        "gps_page_table.installs",
        "link.egress0.bytes",
        "link.transfers",
        "gpu0.dram.read_bytes",
        "gpu0.dram.write_bytes",
        "gpu0.write_queue.stores_seen",
    ]

    def test_gps_exposes_required_counters(self, traced_run):
        paradigm, _, result = traced_run
        if paradigm != "gps":
            pytest.skip("GPS-only counter set")
        missing = [name for name in self.REQUIRED_GPS if name not in result.counters]
        assert not missing, f"missing counters: {missing}"
        hardware_components = {name.split(".")[0] for name in result.counters}
        assert len(result.counters) >= 8
        assert {"gps_page_table", "link"} <= hardware_components

    def test_rollups_match_per_gpu_sums(self, traced_run):
        paradigm, _, result = traced_run
        if paradigm != "gps":
            pytest.skip("GPS-only counter set")
        counters = result.counters
        total = sum(
            counters[f"gpu{g}.gps_tlb.misses"] for g in range(result.num_gpus)
        )
        assert counters["gps_tlb.misses"] == total

    def test_counters_survive_result_round_trip(self, traced_run):
        _, _, result = traced_run
        restored = repro.SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.counters == result.counters

    def test_counters_survive_disk_cache(self, tmp_path, monkeypatch):
        from repro.harness.runner import clear_run_cache, run_simulation

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_run_cache()
        kwargs = dict(scale=0.1, iterations=2)
        warm = run_simulation("jacobi", "gps", 4, **kwargs)
        assert warm.counters
        clear_run_cache()  # drop the memo so the next lookup hits the disk
        cold = run_simulation("jacobi", "gps", 4, **kwargs)
        assert cold.counters == warm.counters
        clear_run_cache()

    def test_old_cache_payload_without_counters_loads(self):
        payload = repro.simulate(
            build("jacobi", num_gpus=2, iterations=2), "memcpy", repro.default_system(2)
        ).to_dict()
        del payload["counters"]
        restored = repro.SimulationResult.from_dict(payload)
        assert restored.counters == {}
