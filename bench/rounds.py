"""One benchmark round in a fresh interpreter: ``python -m bench.rounds``.

Run by ``bench/run.py``, never by hand. Prints one JSON line: the round's
set-up and wall time, peak memory, job counts, output digest and, when
traced, its per-layer ledger. Set-up runs from this file's first line until
the first job is submitted (for the service, until its ``/healthz``
answers).
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Set-up runs on one CPU, the one the previous round just used: a core woken
# from idle runs its first ~0.3 s (a round's whole set-up) up to a third
# slower. Serial rounds stay there; pooled and service rounds get every CPU
# back before their first job.
_CPUS = os.sched_getaffinity(0)
os.sched_setaffinity(0, {min(_CPUS)})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

from . import workloads  # noqa: E402
from .ledger import ledger, self_time_table  # noqa: E402
from .tracer import Recorder, Span, check_self_time_sum, chrome_trace, install  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check_source(root: Path) -> None:
    import repro

    expected = (root / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(f"imported repro from {repro.__file__}, not {expected}")


def _analysis_cache_counts() -> dict:
    from repro.analysis.cache import cache_stats

    return cache_stats().to_dict()


def run_grid(args, recorder: "Recorder | None") -> dict:
    from repro.harness.runner import cache_stats, run_many_settled

    size = workloads.SIZES[args.size]
    jobs = workloads.grid_jobs(args.workload, size)
    workloads.rng_for(args.seed, args.round).shuffle(jobs)
    workers = 1 if args.workload in workloads.SERIAL else workloads.POOL_WORKERS
    if workers > 1:
        os.sched_setaffinity(0, _CPUS)
    submit = run_many_settled
    if recorder is not None:
        submit = recorder.record("bench.round", run_many_settled)
        recorder.active = True
    setup = time.perf_counter() - _T0
    start = time.perf_counter()
    outcomes = submit([job for _, job in jobs], max_workers=workers)
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.active = False

    from repro.verify.differential import canonical_payload

    pairs = []
    failed = 0
    for (label, _), outcome in zip(jobs, outcomes):
        if isinstance(outcome, Exception):
            failed += 1
            print(f"job {label} failed: {outcome!r}", file=sys.stderr)
            continue
        pairs.append((label, canonical_payload(outcome)))
    counters = {"memo": cache_stats().as_dict(), "analysis_cache": _analysis_cache_counts()}
    return {
        "setup_s": setup,
        "wall_s": wall,
        "attempted": len(jobs),
        "failed": failed,
        "digest": workloads.digest(pairs),
        "counters": counters,
    }


# -- service ---------------------------------------------------------------

def _spawn_server(args) -> subprocess.Popen:
    """Start the service launcher (``bench/serve.py``)."""
    command = [
        sys.executable, "-m", "bench.serve",
        "--trace", str(args.trace), "--stats", str(_server_stats(args)),
        "--cpus", ",".join(str(cpu) for cpu in sorted(_CPUS)),
    ]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _server_stats(args) -> Path:
    return Path(args.workdir) / "server-stats.json"


def _server_port(server: subprocess.Popen) -> int:
    line = server.stdout.readline()
    if not line.startswith("port "):
        raise SystemExit(f"server did not report its port: {line!r}")
    return int(line.split()[1])


def _wait_healthy(client, deadline_s: float = 60.0) -> None:
    from repro.service import ClientError

    deadline = time.monotonic() + deadline_s
    while True:
        try:
            client.healthz()
            return
        except ClientError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class _ClosedLoop:
    """Clients that each send their next request once the last one returns."""

    def __init__(self, url: str, sequence: "list[dict]", recorder: "Recorder | None") -> None:
        self.url = url
        self.sequence = sequence
        self.next_index = 0
        self.lock = threading.Lock()
        self.records: "list[dict]" = []
        self.payloads: "dict[str, str]" = {}
        self.failed = 0
        self.request = self._request
        if recorder is not None:
            self.request = recorder.record("service.request", self._request)

    def _take(self) -> "dict | None":
        with self.lock:
            if self.next_index >= len(self.sequence):
                return None
            body = self.sequence[self.next_index]
            self.next_index += 1
            return body

    def _request(self, client, body: dict) -> "tuple[dict, dict]":
        job = client.submit(**body)
        return job, client.wait(job["id"])

    def client_loop(self, name: str) -> None:
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        client = ServiceClient(self.url, timeout=120.0, client=name)
        while True:
            body = self._take()
            if body is None:
                return
            start = time.perf_counter()
            try:
                job, result = self.request(client, body)
            except ServiceError as exc:
                with self.lock:
                    self.failed += 1
                print(f"request {body} failed: {exc}", file=sys.stderr)
                continue
            latency = time.perf_counter() - start
            payload = json.dumps(result["result"], sort_keys=True, separators=(",", ":"))
            label = workloads.body_label(body)
            with self.lock:
                first = self.payloads.setdefault(label, payload)
                if first != payload:
                    self.failed += 1
                    print(f"request {label}: payload differs from its first answer",
                          file=sys.stderr)
                self.records.append({
                    "id": job["id"],
                    "latency_s": latency,
                    "cache_hit": bool(job["cache_hit"]),
                    "coalesced": bool(job["coalesced"]),
                })


def run_service(args, recorder: "Recorder | None") -> dict:
    from repro.service import ServiceClient

    size = workloads.SIZES[args.size]
    sequence = workloads.request_sequence(
        workloads.service_pool(size),
        size.service_requests,
        workloads.rng_for(args.seed, args.round),
    )
    # Booted only after this process's imports: overlapping the two made
    # set-up depend on whether the scheduler put them on one CPU or two.
    server = _spawn_server(args)
    try:
        url = f"http://127.0.0.1:{_server_port(server)}"
        control = ServiceClient(url, timeout=120.0)
        _wait_healthy(control)
        os.sched_setaffinity(0, _CPUS)
        loop = _ClosedLoop(url, sequence, recorder)
        threads = [
            threading.Thread(target=loop.client_loop, args=(f"bench-{i}",))
            for i in range(workloads.SERVICE_CLIENTS)
        ]

        def run_pass() -> None:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        if recorder is not None:
            run_pass = recorder.record("bench.round", run_pass)
            recorder.active = True
        setup = time.perf_counter() - _T0
        start = time.perf_counter()
        run_pass()
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.active = False
            for record in loop.records:
                status = control.status(record["id"])
                record["wait_s"] = status.get("wait_s")
                record["run_s"] = status.get("run_s")
        control.shutdown(drain=True)
        server.wait(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if server.returncode != 0:
        raise SystemExit(f"server exited with code {server.returncode}")
    stats = json.loads(_server_stats(args).read_text(encoding="utf-8"))
    pairs = list(loop.payloads.items())
    return {
        "setup_s": setup,
        "wall_s": wall,
        "attempted": len(sequence),
        "failed": loop.failed,
        "digest": workloads.digest(pairs),
        "counters": {
            "memo": stats["memo"],
            "analysis_cache": stats["analysis_cache"],
            "service": loop.records,
        },
        "server_spans": stats.get("spans", []),
        "latency_s": sorted(r["latency_s"] for r in loop.records),
    }


def prepare_seed(args) -> None:
    """Write the pre-seeded third of the service pool into the cache dir."""
    from repro.harness.runner import SimJob, run_many

    size = workloads.SIZES[args.size]
    jobs = [
        SimJob(b["workload"], b["paradigm"], b["gpus"], "pcie6", float(b["scale"]), b["iterations"])
        for b in workloads.preseeded(workloads.service_pool(size))
    ]
    run_many(jobs, max_workers=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="write the round's Perfetto JSON here")
    parser.add_argument("--prepare-seed", action="store_true")
    args = parser.parse_args(argv)

    _check_source(Path(__file__).resolve().parents[1])
    if args.prepare_seed:
        prepare_seed(args)
        return 0

    recorder = None
    if args.trace:
        recorder = Recorder(flush_dir=Path(args.workdir) / "spans")
        recorder.flush_dir.mkdir(parents=True, exist_ok=True)
        recorder.snapshot = _analysis_cache_counts
        install(recorder)

    if workloads.WORKLOADS[args.workload] == "service":
        out = run_service(args, recorder)
    else:
        out = run_grid(args, recorder)
    out["peak_rss_mb"] = _peak_rss_mb()

    server_spans = out.pop("server_spans", [])
    counters = out.pop("counters")
    if recorder is not None:
        spans, snapshots = recorder.collect()
        spans += [Span.from_list(row) for row in server_spans]
        analysis = counters["analysis_cache"]
        for snapshot in snapshots.values():
            for key in ("hits", "misses"):
                analysis[key] = analysis.get(key, 0) + snapshot.get(key, 0)
        check_self_time_sum(spans)
        out["ledger"] = ledger(spans, out["wall_s"], counters)
        out["table"] = self_time_table(spans, out["wall_s"])
        if args.trace_out:
            origin = min(s.start_ns for s in spans)
            Path(args.trace_out).write_text(json.dumps(chrome_trace(spans, origin)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
