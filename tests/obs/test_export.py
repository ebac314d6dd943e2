"""Tests for the Chrome-trace/Perfetto exporter, validator, and metrics views."""

import json

import pytest

import repro
from repro.obs import (
    chrome_trace,
    metrics_csv,
    metrics_json,
    run_manifest,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.span import Span
from tests.conftest import build


@pytest.fixture(scope="module")
def stencil_run():
    """A 2-GPU stencil (Jacobi) run: (executor, result, config)."""
    config = repro.default_system(2)
    executor = repro.make_executor("gps", build("jacobi", num_gpus=2, iterations=2), config)
    result = executor.run()
    return executor, result, config


class TestChromeTrace:
    def test_structure(self, stencil_run):
        executor, _, _ = stencil_run
        payload = chrome_trace(executor.engine.spans())
        assert isinstance(payload["traceEvents"], list)
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "M"}
        assert {"process_name", "thread_name", "thread_sort_index"} <= names

    def test_gpu_tracks_sort_before_ports(self, stencil_run):
        executor, _, _ = stencil_run
        payload = chrome_trace(executor.engine.spans())
        thread_names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert thread_names[:2] == ["gpu0", "gpu1"]
        assert all(t.startswith(("egress", "ingress")) for t in thread_names[2:])

    def test_manifest_lands_in_other_data(self, stencil_run):
        executor, result, config = stencil_run
        manifest = run_manifest(result, config, wall_clock=1.5)
        payload = chrome_trace(executor.engine.spans(), manifest)
        other = payload["otherData"]
        assert other["program"] == result.program_name
        assert other["paradigm"] == "gps"
        assert other["num_gpus"] == 2
        assert other["wall_clock_s"] == 1.5
        assert len(other["config_fingerprint"]) == 64
        assert other["model"].startswith("repro-model/")


class TestGoldenFile:
    """Satellite: a written 2-GPU stencil trace is loadable and well-formed."""

    def test_written_trace_loads_and_validates(self, stencil_run, tmp_path):
        executor, result, config = stencil_run
        path = tmp_path / "stencil.trace.json"
        write_chrome_trace(path, executor.engine.spans(), run_manifest(result, config))
        payload = json.load(open(path))
        assert validate_chrome_trace(payload) == []

    def test_spans_monotonic_and_non_overlapping_per_track(self, stencil_run, tmp_path):
        executor, result, config = stencil_run
        path = tmp_path / "stencil.trace.json"
        write_chrome_trace(path, executor.engine.spans(), run_manifest(result, config))
        payload = json.load(open(path))
        by_tid: dict = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                by_tid.setdefault(event["tid"], []).append(event)
        assert by_tid, "trace holds no complete events"
        for events in by_tid.values():
            cursor = 0.0
            for event in events:
                assert event["ts"] >= cursor - 1e-6, "span overlaps its predecessor"
                cursor = event["ts"] + event["dur"]

    def test_deterministic_across_runs(self, stencil_run, tmp_path):
        _, _, config = stencil_run
        paths = []
        for i in range(2):
            executor = repro.make_executor(
                "gps", build("jacobi", num_gpus=2, iterations=2), config
            )
            executor.run()
            path = tmp_path / f"trace{i}.json"
            write_chrome_trace(path, executor.engine.spans())
            paths.append(path.read_text())
        assert paths[0] == paths[1]


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["top-level payload is not a JSON object"]

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]

    def test_rejects_bad_fields(self):
        payload = {"traceEvents": [{"ph": "X", "name": 7, "pid": 0, "tid": 0,
                                    "cat": "k", "ts": -1.0, "dur": 1.0}]}
        problems = validate_chrome_trace(payload)
        assert any("name is not a string" in p for p in problems)
        assert any("ts is not a non-negative number" in p for p in problems)

    def test_rejects_overlap(self):
        events = [
            {"ph": "X", "name": "a", "cat": "k", "pid": 0, "tid": 0, "ts": 0.0, "dur": 5.0},
            {"ph": "X", "name": "b", "cat": "k", "pid": 0, "tid": 0, "ts": 2.0, "dur": 1.0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("overlaps" in p for p in problems)

    def test_accepts_synthetic_good_trace(self):
        payload = chrome_trace(
            [
                Span("a", "kernel", "gpu0", 0.0, 1.0),
                Span("b", "kernel", "gpu0", 1.0, 2.0),
            ]
        )
        assert validate_chrome_trace(payload) == []


class TestMetricsViews:
    def test_metrics_json(self, stencil_run):
        _, result, _ = stencil_run
        flat = metrics_json(result)
        assert flat["program"] == result.program_name
        assert flat["counters"] == dict(sorted(result.counters.items()))

    def test_metrics_csv(self, stencil_run):
        _, result, _ = stencil_run
        lines = metrics_csv(result).strip().splitlines()
        assert lines[0] == "counter,value"
        assert len(lines) == len(result.counters) + 1
