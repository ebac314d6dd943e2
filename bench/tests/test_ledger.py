import json
from pathlib import Path

import pytest

from bench import workloads
from bench.ledger import METRICS, ledger, percentile, tail_percentile
from bench.run import END_TO_END
from bench.tracer import Span


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_keeps_ten_samples_above():
    # 200 samples: p95 leaves exactly 10 above, p99 only 2.
    values = list(range(200))
    q, value = tail_percentile(values)
    assert q == 95
    assert sum(1 for v in values if v > value) >= 10
    assert sum(1 for v in values if v > percentile(values, 99)) < 10


def test_tail_percentile_falls_back_or_gives_up():
    assert tail_percentile(list(range(40)))[0] == 75
    assert tail_percentile(list(range(30))) is None
    # Ties at the top do not count as samples above the percentile.
    assert tail_percentile([1.0] * 100) is None


def _span(name, start, end, tid=1, count=None):
    return Span(name, start, end, 1, tid, count)


def test_ledger_reports_every_layer_metric():
    spans = [
        _span("bench.round", 0, 1_000),
        _span("harness.compute", 0, 800),
        _span("cache.l2", 100, 500, count=40),
        _span("core.replay", 500, 700, count=20),
    ]
    out = ledger(spans, wall=1e-6, counters={})
    names = {name for name, _ in METRICS} - {"trace_overhead_ratio", "src.lines"}
    assert set(out) == names
    assert out["cache.l2_s"] == pytest.approx(400e-9)
    assert out["cache.l2_share"] == pytest.approx(0.4)
    assert out["cache.l2_ns_per_line"] == pytest.approx(10.0)
    assert out["core.ns_per_store"] == pytest.approx(10.0)
    assert out["harness.pool_busy_ratio"] == pytest.approx(0.8)


def test_ledger_service_shares_split_client_latency():
    requests = [
        {"latency_s": 1.0, "cache_hit": False, "coalesced": False, "wait_s": 0.2, "run_s": 0.6},
        {"latency_s": 0.01, "cache_hit": True, "coalesced": False, "wait_s": 0.0, "run_s": 0.0},
    ]
    out = ledger([_span("bench.round", 0, 10)], wall=1.0, counters={"service": requests})
    assert out["service.hit_ratio"] == pytest.approx(0.5)
    assert out["service.wait_share"] == pytest.approx(0.2 / 1.01)
    assert out["service.run_share"] == pytest.approx(0.6 / 1.01)
    assert out["service.http_share"] == pytest.approx(0.21 / 1.01)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
