"""Per-layer ledger: the traced round's spans and counters as named metrics.

Every ``*_s`` entry is the layer's self time in one round, and its
``*_share`` is that time over the round's traced wall time. Work done in
parallel (pool workers, the server beside its clients) is summed, so the
shares of a pooled round can add up to more than one.
"""

from __future__ import annotations

import math

from .tracer import Span, self_times

#: Span names reported as ``<name>_s`` self time and ``<name>_share``.
LAYERS = (
    "cache.l2",
    "core.replay",
    "workloads.build",
    "analysis.check",
    "trace.expand",
    "gpu.coalesce",
    "paradigms.walk",
    "sim.engine",
    "system.assemble",
    "harness.cache_get",
    "harness.cache_put",
)

#: Every ledger metric and its unit, in report order.
METRICS: "list[tuple[str, str]]" = (
    [
        (f"{layer}_{kind}", unit)
        for layer in LAYERS
        for kind, unit in (("s", "s"), ("share", "ratio"))
    ]
    + [
        ("cache.l2_lines", "count"),
        ("cache.l2_ns_per_line", "ns"),
        ("core.stores", "count"),
        ("core.ns_per_store", "ns"),
        ("trace.lines", "count"),
        ("sim.tasks", "count"),
        ("analysis.cache_hit_ratio", "ratio"),
        ("system.analyses_built", "count"),
        ("system.analysis_reuse_ratio", "ratio"),
        ("harness.memo_hits", "count"),
        ("harness.disk_hits", "count"),
        ("harness.misses", "count"),
        ("harness.job_ms_p50", "ms"),
        ("harness.lookup_ms_p50", "ms"),
        ("harness.pool_busy_ratio", "ratio"),
        ("harness.pool_overhead_s", "s"),
        ("service.hit_ratio", "ratio"),
        ("service.dedup_ratio", "ratio"),
        ("service.wait_share", "ratio"),
        ("service.run_share", "ratio"),
        ("service.http_share", "ratio"),
        ("trace_overhead_ratio", "ratio"),
        ("src.lines", "count"),
    ]
)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, candidates=(99.0, 95.0, 90.0, 75.0), min_tail: int = 10):
    """``(q, value)`` for the highest ``q`` with ``min_tail`` samples above it.

    A percentile is only reported when at least ``min_tail`` samples lie
    strictly beyond it; ``None`` when no candidate qualifies.
    """
    for q in candidates:
        value = percentile(values, q)
        if sum(1 for v in values if v > value) >= min_tail:
            return q, value
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(spans: "list[Span]", wall: float, counters: dict) -> "dict[str, float]":
    """Per-layer metrics of one traced round.

    ``counters`` holds the program's own statistics read after the round:
    ``memo`` (the runner's :class:`CacheStats` dict), ``analysis_cache``
    (hit and miss counts of the analyzer cache) and, for the service,
    ``service`` (per-request records from the clients).
    """
    own = self_times(spans)
    out: "dict[str, float]" = {}
    for layer in LAYERS:
        seconds = own.get(layer, 0.0)
        out[f"{layer}_s"] = seconds
        out[f"{layer}_share"] = _ratio(seconds, wall)

    def count(name: str) -> int:
        return sum(s.count or 0 for s in spans if s.name == name)

    def durations(name: str) -> "list[float]":
        return [s.duration_ns / 1e6 for s in spans if s.name == name]

    out["cache.l2_lines"] = count("cache.l2")
    out["cache.l2_ns_per_line"] = _ratio(out["cache.l2_s"] * 1e9, out["cache.l2_lines"])
    out["core.stores"] = count("core.replay")
    out["core.ns_per_store"] = _ratio(out["core.replay_s"] * 1e9, out["core.stores"])
    out["trace.lines"] = count("trace.expand")
    out["sim.tasks"] = count("sim.engine")

    analysis = counters.get("analysis_cache", {})
    out["analysis.cache_hit_ratio"] = _ratio(
        analysis.get("hits", 0), analysis.get("hits", 0) + analysis.get("misses", 0)
    )
    built = sum(1 for s in spans if s.name == "system.analysis_build")
    lookups = sum(1 for s in spans if s.name == "system.get_analysis")
    out["system.analyses_built"] = built
    out["system.analysis_reuse_ratio"] = 1.0 - _ratio(built, lookups) if lookups else 0.0

    memo = counters.get("memo", {})
    out["harness.memo_hits"] = memo.get("memory_hits", 0)
    out["harness.disk_hits"] = memo.get("disk_hits", 0)
    out["harness.misses"] = memo.get("misses", 0)
    jobs = durations("harness.compute")
    out["harness.job_ms_p50"] = percentile(jobs, 50) if jobs else 0.0
    lookup_times = durations("harness.lookup")
    out["harness.lookup_ms_p50"] = percentile(lookup_times, 50) if lookup_times else 0.0
    workers = len({s.lane for s in spans if s.name == "harness.compute"})
    busy = sum(jobs) / 1e3
    out["harness.pool_busy_ratio"] = _ratio(busy, workers * wall)
    out["harness.pool_overhead_s"] = wall - _ratio(busy, workers)

    requests = counters.get("service", [])
    latency = sum(r["latency_s"] for r in requests)
    out["service.hit_ratio"] = _ratio(sum(r["cache_hit"] for r in requests), len(requests))
    out["service.dedup_ratio"] = _ratio(sum(r["coalesced"] for r in requests), len(requests))
    waited = sum(r.get("wait_s") or 0.0 for r in requests)
    ran = sum(r.get("run_s") or 0.0 for r in requests)
    out["service.wait_share"] = _ratio(waited, latency)
    out["service.run_share"] = _ratio(ran, latency)
    out["service.http_share"] = _ratio(max(0.0, latency - waited - ran), latency)
    return out


def self_time_table(spans: "list[Span]", wall: float) -> str:
    """Human-readable self time per span name, largest first."""
    own = self_times(spans)
    lines = [f"{'layer':<24} {'self_s':>10} {'share':>7}"]
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<24} {seconds:>10.4f} {_ratio(seconds, wall):>7.1%}")
    lines.append(f"{'sum':<24} {sum(own.values()):>10.4f} (traced wall {wall:.4f}s)")
    return "\n".join(lines)
