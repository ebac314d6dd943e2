#!/usr/bin/env python
"""Service-path latency benchmark: closed-loop load over the live HTTP API.

Boots a full :class:`repro.service.SimulationService` (HTTP frontend +
scheduler + serial runner) on an ephemeral port and drives it with
three workload phases through the blocking client SDK:

* **cold** — one distinct simulation per registered workload, closed loop
  (submit, wait, repeat). Every job misses all caches and runs the engine.
* **warm** — the same jobs resubmitted; each is a memo-cache hit answered
  without touching the queue.
* **burst** — duplicate pairs submitted back-to-back *without* waiting (a
  small open burst), so the second submission coalesces onto the first's
  in-flight execution (or, if the first already finished, hits the cache —
  either way it never re-simulates).

Reported per phase: submit-to-result p50/p99 and, for cold jobs, the
server-side queue-wait vs run-time split plus the overhead left over
(latency - wait - run: HTTP, JSON and the client's wait for its answer),
printed but not gated. Raw latencies are
machine-dependent, so the committed ``BENCH_service.json`` gates two
machine-independent quantities instead: the warm/cold p50 speedup ratio
(a cache hit answered at HTTP round-trip speed vs a full engine run) and
the dedup rate ``(coalesced + cache_hits) / submitted``, which is exactly
determined by the phase script above. ``--check`` also gates two exact
counts of the warm phase: every submit answers ``cache_hit: true``, and
``host.fleet.jobs_computed`` in ``/metrics`` does not move.

Usage:
    python benchmarks/bench_service.py --out BENCH_service.json
    python benchmarks/bench_service.py --check BENCH_service.json
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from bench_common import check_speedups, load_report, scoped_env, write_report

#: Pinned job shape — small enough that the full matrix stays CI-friendly.
GPUS = 2
LINK = "pcie6"
SCALE = 0.25
COLD_ITERATIONS = 2
BURST_ITERATIONS = 3  # distinct fingerprints from the cold phase
BURST_PAIRS = 4

#: Dedup-rate drift tolerated by --check. The quantity is deterministic, so
#: any drift at all means the coalescing/cache behaviour changed.
DEDUP_TOLERANCE = 1e-9


class _LiveService:
    """A service running in a background thread (mirrors the test fixture)."""

    def __init__(self, settings) -> None:
        import asyncio

        from repro.service import SimulationService

        self.service = None
        self._started = threading.Event()

        def _run() -> None:
            async def _main() -> None:
                self.service = SimulationService(settings)
                await self.service.start()
                self._started.set()
                await self.service.serve_forever()

            asyncio.run(_main())

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        if not self._started.wait(10):
            raise RuntimeError("service failed to start")

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self) -> None:
        from repro.service import ServiceClient

        if self._thread.is_alive():
            try:
                ServiceClient(self.url, timeout=5.0).shutdown(drain=False)
            except Exception:
                pass
            self._thread.join(30)


def _p(values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile of a latency list; ``q`` is in percent."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _ms(values: "list[float]", q: float) -> float:
    return round(_p(values, q) * 1e3, 3)


def run_load() -> "tuple[list[dict], dict]":
    from repro.service import ServiceClient, ServiceSettings
    from repro.workloads.registry import WORKLOADS

    settings = ServiceSettings(
        host="127.0.0.1",
        port=0,
        queue_depth=64,
        max_workers=1,
    )
    live = _LiveService(settings)
    client = ServiceClient(live.url, timeout=120.0)
    workloads = sorted(WORKLOADS)

    def submit(workload: str, iterations: int) -> "tuple[dict, float]":
        job = client.submit(
            workload, paradigm="gps", gpus=GPUS, link=LINK,
            scale=SCALE, iterations=iterations,
        )
        return job, time.perf_counter()

    try:
        # Phase 1: cold, closed loop — every job simulates.
        cold_lat: "list[float]" = []
        cold_ids: "list[str]" = []
        for name in workloads:
            job, t0 = submit(name, COLD_ITERATIONS)
            client.wait(job["id"], timeout=600.0)
            cold_lat.append(time.perf_counter() - t0)
            cold_ids.append(job["id"])
        cold_wait = [client.status(job_id)["wait_s"] for job_id in cold_ids]
        cold_run = [client.status(job_id)["run_s"] for job_id in cold_ids]
        cold_overhead = [
            latency - wait - run
            for latency, wait, run in zip(cold_lat, cold_wait, cold_run)
        ]

        # Phase 2: warm, closed loop — every job is a memo-cache hit.
        computed_before = client.metrics()["host.fleet.jobs_computed"]
        warm_lat: "list[float]" = []
        warm_misses = 0
        for name in workloads:
            job, t0 = submit(name, COLD_ITERATIONS)
            warm_misses += not job["cache_hit"]
            client.wait(job["id"], timeout=60.0)
            warm_lat.append(time.perf_counter() - t0)
        warm_computed = client.metrics()["host.fleet.jobs_computed"] - computed_before

        # Phase 3: duplicate-pair bursts — the second submission dedups
        # (coalesces while in flight, cache-hits if already done).
        burst_lat: "list[float]" = []
        first_trace = None
        for name in workloads[:BURST_PAIRS]:
            job_a, t_a = submit(name, BURST_ITERATIONS)
            job_b, t_b = submit(name, BURST_ITERATIONS)
            first_trace = first_trace or job_a["client_trace"]["trace_id"]
            client.wait(job_a["id"], timeout=600.0)
            done_a = time.perf_counter()
            client.wait(job_b["id"], timeout=600.0)
            done_b = time.perf_counter()
            burst_lat.extend((done_a - t_a, done_b - t_b))

        # The observability surface must be live under load: the first
        # burst trace exports a non-empty span closure, and the completed-jobs
        # counter has every cold job.
        trace = client.trace(first_trace)
        assert trace["spans"], "distributed trace came back empty"
        metrics = client.metrics()
        completed = metrics["service.jobs.completed"]
        assert completed >= len(cold_lat), f"completed-jobs counter lost jobs: {completed}"
    finally:
        live.stop()

    submitted = metrics["service.queue.submitted"]
    coalesced = metrics["service.queue.coalesced"]
    cache_hits = metrics["service.queue.cache_hits"]
    dedup_rate = (coalesced + cache_hits) / submitted
    speedup = _p(cold_lat, 50.0) / _p(warm_lat, 50.0)

    results = [
        {
            "structure": "service", "op": "cold",
            "p50_ms": _ms(cold_lat, 50.0), "p99_ms": _ms(cold_lat, 99.0),
            "wait_ms_p50": _ms(cold_wait, 50.0), "run_ms_p50": _ms(cold_run, 50.0),
            "overhead_ms_p50": _ms(cold_overhead, 50.0),
            "jobs": len(cold_lat),
        },
        {
            "structure": "service", "op": "warm_cache",
            "p50_ms": _ms(warm_lat, 50.0), "p99_ms": _ms(warm_lat, 99.0),
            "jobs": len(warm_lat),
        },
        {
            "structure": "service", "op": "burst_pairs",
            "p50_ms": _ms(burst_lat, 50.0), "p99_ms": _ms(burst_lat, 99.0),
            "jobs": len(burst_lat),
        },
        {
            "structure": "service", "op": "warm_vs_cold",
            "speedup": round(speedup, 2),
        },
    ]
    summary = {
        "jobs_submitted": submitted,
        "coalesced": coalesced,
        "cache_hits": cache_hits,
        "dedup_rate": round(dedup_rate, 6),
        "cold_p50_ms": _ms(cold_lat, 50.0),
        "warm_p50_ms": _ms(warm_lat, 50.0),
        "warm_vs_cold_speedup": round(speedup, 2),
        "warm_misses": warm_misses,
        "warm_jobs_computed": warm_computed,
    }
    return results, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write BENCH_service.json here")
    parser.add_argument("--check", default=None,
                        help="compare against a committed BENCH_service.json; "
                             "exit 1 on speedup regression >85%%, any dedup drift, "
                             "or a warm submit that computes")
    args = parser.parse_args(argv)

    with scoped_env(REPRO_NO_CACHE="1", REPRO_MAX_WORKERS="1", REPRO_SERVICE_URL=None):
        from repro.harness.runner import clear_run_cache

        clear_run_cache()
        results, summary = run_load()
        clear_run_cache()

    for row in results:
        if "p50_ms" in row:
            extra = ""
            if "wait_ms_p50" in row:
                extra = (f"  (wait {row['wait_ms_p50']:.1f} ms / "
                         f"run {row['run_ms_p50']:.1f} ms / "
                         f"overhead {row['overhead_ms_p50']:.1f} ms)")
            print(f"{row['op']:>16}  p50 {row['p50_ms']:>9.3f} ms  "
                  f"p99 {row['p99_ms']:>9.3f} ms  ({row['jobs']} jobs){extra}")
    print(f"{'warm_vs_cold':>16}  {summary['warm_vs_cold_speedup']:.1f}x speedup, "
          f"dedup rate {summary['dedup_rate']:.3f} "
          f"({summary['coalesced']} coalesced + {summary['cache_hits']} cache hits "
          f"/ {summary['jobs_submitted']} submitted)")
    config = {
        "gpus": GPUS, "link": LINK, "scale": SCALE,
        "cold_iterations": COLD_ITERATIONS, "burst_iterations": BURST_ITERATIONS,
        "burst_pairs": BURST_PAIRS,
    }
    if args.out:
        write_report(args.out, "service", results, summary, config)
    if args.check:
        baseline = load_report(args.check)
        print(f"checking against {args.check} (model {baseline['model_version']}):")
        # The ratio gate is deliberately loose (floor = 15% of baseline):
        # a cache hit answered at HTTP round-trip speed is still two orders
        # of magnitude faster than an engine run on any machine, while a
        # cache that stops hitting collapses the ratio to ~1x.
        gated = [row for row in results if "speedup" in row]
        regressions = check_speedups(baseline, gated, ("structure", "op"),
                                     tolerance=0.85)
        base_dedup = baseline["summary"]["dedup_rate"]
        drift = abs(summary["dedup_rate"] - base_dedup)
        status = "ok" if drift <= DEDUP_TOLERANCE else "DRIFTED"
        print(f"  dedup rate {summary['dedup_rate']:.6f} "
              f"(baseline {base_dedup:.6f}) {status}")
        if status != "ok":
            regressions += 1
        # Exact counts: a warm submit is answered from the cache, never run.
        for name in ("warm_misses", "warm_jobs_computed"):
            status = "ok" if summary[name] == 0 else "FAILED"
            print(f"  {name} {summary[name]} (must be 0) {status}")
            if status != "ok":
                regressions += 1
        if regressions:
            print(f"FAIL: {regressions} gate(s) failed vs baseline")
            return 1
        print("PASS: no service-path regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
