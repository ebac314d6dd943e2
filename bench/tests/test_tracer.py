import json
import threading
import time

import pytest

from bench.tracer import (
    Recorder,
    Span,
    check_self_time_sum,
    chrome_trace,
    lane_coverage,
    self_times,
)

MS = 1_000_000


def span(name, start_ms, end_ms, tid=1, pid=1):
    return Span(name, start_ms * MS, end_ms * MS, pid, tid)


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40),
        span("b", 15, 25),  # inside a
        span("c", 50, 90),
        span("b", 60, 70),  # inside c
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(0.030)
    assert own["a"] == pytest.approx(0.020)
    assert own["c"] == pytest.approx(0.030)
    assert own["b"] == pytest.approx(0.020)
    assert sum(own.values()) == pytest.approx(0.100)


def test_same_start_nests_the_longer_span_outside():
    own = self_times([span("inner", 0, 10), span("outer", 0, 30)])
    assert own == pytest.approx({"outer": 0.020, "inner": 0.010})


def test_lanes_do_not_nest_into_each_other():
    spans = [span("root", 0, 100, tid=1), span("worker", 10, 90, tid=2)]
    own = self_times(spans)
    assert own == pytest.approx({"root": 0.100, "worker": 0.080})
    assert lane_coverage(spans) == pytest.approx({(1, 1): 0.100, (1, 2): 0.080})
    check_self_time_sum(spans)


def test_coverage_is_the_union_of_top_level_spans():
    spans = [span("a", 0, 10), span("b", 20, 30), span("c", 25, 28)]
    assert lane_coverage(spans) == pytest.approx({(1, 1): 0.020})
    check_self_time_sum(spans)


def test_recorder_spans_nest_and_add_up_to_the_wall():
    recorder = Recorder()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = recorder.record("leaf", leaf)

    def middle():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.005)

    root = recorder.record("root", recorder.record("middle", middle))
    recorder.active = True
    start = time.perf_counter()
    root()
    wall = time.perf_counter() - start
    recorder.active = False
    assert [s.name for s in recorder.spans] == ["leaf", "leaf", "middle", "root"]
    own = self_times(recorder.spans)
    assert own["leaf"] >= 0.02
    assert own["middle"] >= 0.005
    assert sum(own.values()) == pytest.approx(wall, rel=0.05)
    check_self_time_sum(recorder.spans)


def test_inactive_recorder_records_nothing():
    recorder = Recorder()
    wrapped = recorder.record("f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert recorder.spans == []


def test_recorder_counts_and_threads():
    recorder = Recorder()
    wrapped = recorder.record("work", lambda items: sum(items), count=lambda args, r: len(args[0]))
    recorder.active = True
    threads = [threading.Thread(target=wrapped, args=([1, 2, 3],)) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert [s.count for s in recorder.spans] == [3, 3, 3]


def test_flushed_worker_spans_are_collected(tmp_path):
    recorder = Recorder(flush_dir=tmp_path)
    (tmp_path / "spans-42.jsonl").write_text(
        json.dumps({"spans": [span("w", 0, 5, pid=42).to_list()], "snapshot": {"hits": 1}})
        + "\n"
    )
    spans, snapshots = recorder.collect()
    assert [s.name for s in spans] == ["w"]
    assert snapshots == {42: {"hits": 1}}


def test_chrome_trace_is_complete_events_in_microseconds():
    trace = chrome_trace([span("cache.l2", 2, 5)], origin_ns=1 * MS)
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X"
    assert event["cat"] == "cache"
    assert event["ts"] == pytest.approx(1000.0)
    assert event["dur"] == pytest.approx(3000.0)
