"""Distributed traces derived from the queue's job records.

The golden test drives the :class:`JobQueue` state machine directly inside
``asyncio.run`` — with sequential ids and a fake clock the whole span tree
(client root -> request -> queue.wait -> execute -> run -> engine spans) is
deterministic down to the byte, so the Perfetto export is pinned to a
committed baseline file.
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.harness.runner import SimJob, clear_run_cache, run_simulation
from repro.obs import Span, dump_chrome_trace, validate_chrome_trace
from repro.obs.distributed import (
    SequentialIds,
    TraceContext,
    derived_span_id,
    set_id_generator,
)
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceMetrics,
    ServiceSettings,
    SimulationService,
)
from repro.service.queue import ENGINE_TRACE_GROUPS
from repro.service.server import perfetto_trace

GOLDEN = Path(__file__).parent / "baselines" / "distributed_trace.golden.json"
ROWS_GOLDEN = Path(__file__).parent / "baselines" / "trace_rows.golden.json"

#: Synthetic engine output, as the worker's ``Engine.spans`` list.
ENGINE_SPANS = [
    Span("k1", "kernel", "gpu0", 0.0, 2.0, {"gpu": 0}),
    Span("x1", "transfer", "egress0", 2.0, 3.5),
]


def sim(scale: float = 0.25) -> SimJob:
    return SimJob("jacobi", "gps", 2, "pcie6", scale, 2)


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float = 1.0) -> float:
        self.t += dt
        return self.t


@pytest.fixture
def sequential_ids():
    clear_run_cache()  # a memo hit would short-circuit the queue path
    set_id_generator(SequentialIds())
    yield
    set_id_generator(None)


def drive_full_chain(clock: FakeClock, engine=ENGINE_SPANS) -> "tuple[JobQueue, str]":
    """One submission through the whole queue lifecycle."""
    queue = JobQueue(ServiceMetrics(), clock=clock)
    context = TraceContext.mint()

    async def _drive() -> None:
        job = queue.submit(sim(), trace=context)
        clock.tick(0.5)  # queue wait
        (primary,) = queue.pop_ready(1)
        queue.mark_running(primary.key)
        clock.tick(2.0)  # the attempt runs
        queue.finish(primary.key, result=None, spans=engine)
        assert job.state.value == "done"

    asyncio.run(_drive())
    return queue, context.trace_id


def by_name(spans) -> dict:
    return {span.name: span for span in spans}


class TestFullChain:
    def test_span_topology(self, sequential_ids):
        clock = FakeClock()
        queue, trace_id = drive_full_chain(clock)
        spans = by_name(queue.trace(trace_id))
        assert set(spans) == {"request", "queue.wait", "execute", "run", "k1", "x1"}

        request, wait = spans["request"], spans["queue.wait"]
        execute, run = spans["execute"], spans["run"]
        assert request.parent_id is not None  # the client's root span
        assert wait.parent_id == request.span_id
        assert execute.parent_id == request.span_id
        assert run.parent_id == execute.span_id
        assert spans["k1"].parent_id == run.span_id
        assert spans["k1"].span_id == derived_span_id(run.span_id, 0)
        assert all(s.trace_id == trace_id for s in spans.values())

        # queue.wait closes at dispatch; engine spans rebase onto the run.
        assert wait.duration == 0.5
        assert run.duration == 2.0
        assert spans["k1"].start == run.start
        assert spans["x1"].attrs["sim_end"] == 3.5
        assert request.attrs["outcome"] == "done"

    def test_export_matches_golden(self, sequential_ids):
        queue, trace_id = drive_full_chain(FakeClock())
        payload = perfetto_trace(trace_id, queue.trace(trace_id))
        assert validate_chrome_trace(payload) == []
        text = dump_chrome_trace(payload)
        assert text == GOLDEN.read_text(), (
            "distributed trace export drifted; if intentional, regenerate "
            "with\n  PYTHONPATH=src:tests python -c \"from service.test_tracing "
            "import *; regenerate_golden()\""
        )

    def test_export_has_both_lanes_and_synthesized_root(self, sequential_ids):
        queue, trace_id = drive_full_chain(FakeClock())
        payload = perfetto_trace(trace_id, queue.trace(trace_id))
        slices = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        assert slices["request"]["pid"] == 0
        assert slices["k1"]["pid"] == 1
        # The client never reported its span; the export synthesizes it.
        assert slices["client.submit"]["args"]["synthesized"] is True
        assert slices["request"]["args"]["parent_id"] == (
            slices["client.submit"]["args"]["span_id"]
        )


def served_rows(queue: JobQueue, trace_id: str) -> str:
    """The ``GET /traces/{id}`` body the server renders for ``queue``'s trace."""
    service = SimulationService(ServiceSettings(port=0))
    service.queue = queue
    status, body = asyncio.run(service._route("GET", f"/traces/{trace_id}", {}, {}, b""))
    assert status == 200
    return json.dumps(body, indent=1, sort_keys=True) + "\n"


class TestPerfettoExport:
    def test_engine_lanes_sort_numerically(self, sequential_ids):
        """``gpu10`` sorts after ``gpu2``, as in ``repro trace``."""
        engine = [
            Span(f"k@gpu{gpu}", "kernel", f"gpu{gpu}", 0.0, 1.0) for gpu in (10, 2, 11, 0, 1)
        ]
        queue, trace_id = drive_full_chain(FakeClock(), engine)
        payload = perfetto_trace(trace_id, queue.trace(trace_id))
        assert validate_chrome_trace(payload) == []
        lanes = sorted(
            (e["tid"], e["args"]["name"])
            for e in payload["traceEvents"]
            if e["name"] == "thread_name" and e["pid"] == 1
        )
        assert [name for _, name in lanes] == ["gpu0", "gpu1", "gpu2", "gpu10", "gpu11"]


class TestSynthesizeRoots:
    @staticmethod
    def service_span(name, span_id, parent_id, start, end, track="job"):
        return Span(name, "internal", track, start, end, clock="service",
                    trace_id="t1", span_id=span_id, parent_id=parent_id)

    @staticmethod
    def roots(payload):
        return [e for e in payload["traceEvents"] if e["name"] == "client.submit"]

    def test_orphan_parent_becomes_client_submit(self):
        spans = [
            self.service_span("request", "s2", "s1", 10.0, 13.0, track="server"),
            self.service_span("queue.wait", "s3", "s2", 10.5, 11.0),
        ]
        (root,) = self.roots(perfetto_trace("t1", spans))
        assert root["args"] == {
            "parent_id": None, "span_id": "s1", "synthesized": True, "trace_id": "t1",
        }
        assert (root["cat"], root["ts"], root["dur"]) == ("client", 0.0, 3e6)

    def test_no_orphans_no_synthesis(self):
        spans = [self.service_span("request", "s1", None, 0.0, 1.0)]
        assert self.roots(perfetto_trace("t1", spans)) == []


class TestTraceRows:
    def test_rows_match_golden(self, sequential_ids):
        """The JSON rows are a wire format (CI reads their ``kind`` key)."""
        queue, trace_id = drive_full_chain(FakeClock())
        assert served_rows(queue, trace_id) == ROWS_GOLDEN.read_text()


class TestCoalescedTraces:
    def drive(self, clock: FakeClock):
        """Two same-fingerprint submissions; the second coalesces."""
        queue = JobQueue(ServiceMetrics(), clock=clock)
        context_a, context_b = TraceContext.mint(), TraceContext.mint()

        async def _drive() -> None:
            job_a = queue.submit(sim(), trace=context_a)
            clock.tick(0.25)
            job_b = queue.submit(sim(), trace=context_b)
            assert job_b.coalesced and job_b.key == job_a.key
            clock.tick(0.25)
            (primary,) = queue.pop_ready(1)
            assert primary.id == job_a.id
            queue.mark_running(primary.key)
            clock.tick(1.0)
            queue.finish(primary.key, result=None, spans=ENGINE_SPANS)
            assert job_a.state.value == job_b.state.value == "done"

        asyncio.run(_drive())
        return queue, context_a.trace_id, context_b.trace_id

    def test_two_traces_share_one_execution(self, sequential_ids):
        queue, trace_a, trace_b = self.drive(FakeClock())
        assert trace_a != trace_b

        # The duplicate's own spans are only its request + coalesced
        # marker; its trace pulls the shared execution in via the link.
        closure = queue.trace(trace_b)
        own = [s for s in closure if s.trace_id == trace_b]
        assert sorted(s.name for s in own) == ["coalesced", "request"]
        assert sorted(s.name for s in closure) == [
            "coalesced", "execute", "k1", "request", "run", "x1",
        ]

        coalesced = by_name(own)["coalesced"]
        execute = by_name(queue.trace(trace_a))["execute"]
        assert coalesced.links == (
            {"trace_id": trace_a, "span_id": execute.span_id},
        )
        assert execute.attrs["group_size"] == 2
        # The primary's trace never leaks the duplicate's spans.
        assert "coalesced" not in {s.name for s in queue.trace(trace_a)}

    def test_duplicate_export_is_byte_stable_and_valid(self, sequential_ids):
        queue, trace_a, trace_b = self.drive(FakeClock())
        for trace_id in (trace_a, trace_b):
            payload = perfetto_trace(trace_id, queue.trace(trace_id))
            assert validate_chrome_trace(payload) == []
            assert dump_chrome_trace(payload) == dump_chrome_trace(
                perfetto_trace(trace_id, queue.trace(trace_id))
            )
        # The foreign execution subtree lands on a prefixed wall-clock track.
        payload = perfetto_trace(trace_b, queue.trace(trace_b))
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"coalesced", "execute", "run", "k1"} <= names
        lanes = {e["args"]["name"] for e in payload["traceEvents"] if e["name"] == "thread_name"}
        assert {f"{trace_a[:8]}/job", f"{trace_a[:8]}/attempt", "job", "gpu0"} <= lanes


class TestDerivedTrace:
    def test_closure_follows_links_one_hop(self, sequential_ids):
        """Two duplicates on one trace pull the primary's execution subtree
        in once, and never the primary's own request or queue wait."""
        clock = FakeClock()
        queue = JobQueue(ServiceMetrics(), clock=clock)
        primary_ctx, dup_ctx = TraceContext.mint(), TraceContext.mint()

        async def _drive() -> None:
            queue.submit(sim(), trace=primary_ctx)
            queue.submit(sim(), trace=dup_ctx)
            queue.submit(sim(), trace=dup_ctx)
            (primary,) = queue.pop_ready(1)
            queue.mark_running(primary.key)
            clock.tick(1.0)
            queue.finish(primary.key, result=None, spans=ENGINE_SPANS)

        asyncio.run(_drive())
        spans = queue.trace(dup_ctx.trace_id)
        own = sorted(s.name for s in spans if s.trace_id == dup_ctx.trace_id)
        assert own == ["coalesced", "coalesced", "request", "request"]
        linked = sorted(s.name for s in spans if s.trace_id == primary_ctx.trace_id)
        assert linked == ["execute", "k1", "run", "x1"]
        assert queue.trace("f" * 32) == []

    def test_engine_spans_reparent_under_run(self, sequential_ids):
        queue, trace_id = drive_full_chain(FakeClock())
        spans = queue.trace(trace_id)
        run = by_name(spans)["run"]
        engine = [s for s in spans if s.clock == "sim"]
        assert [s.span_id for s in engine] == [
            derived_span_id(run.span_id, 0),
            derived_span_id(run.span_id, 1),
        ]
        assert all(s.parent_id == run.span_id for s in engine)
        assert (engine[0].start, engine[0].end) == (run.start, run.start + 2.0)
        assert engine[0].attrs == {"gpu": 0, "sim_start": 0.0, "sim_end": 2.0}
        assert (engine[0].category, engine[1].track) == ("kernel", "egress0")

    def test_span_ids_are_deterministic(self, sequential_ids):
        queue, trace_id = drive_full_chain(FakeClock())
        assert queue.trace(trace_id) == queue.trace(trace_id)
        (job,) = queue.jobs()
        request = by_name(queue.trace(trace_id))["request"]
        # A pure function of (trace id, job id, role, attempt).
        assert request.span_id == derived_span_id(f"{trace_id}/{job.id}/request", 0)
        assert by_name(queue.trace(trace_id))["run"].span_id == job.span_id("run", 1)

    def test_failed_attempt_and_retry_get_their_own_runs(self, sequential_ids):
        clock = FakeClock()
        queue = JobQueue(ServiceMetrics(), clock=clock)
        context = TraceContext.mint()

        async def _drive():
            job = queue.submit(sim(), trace=context)
            clock.tick(0.5)
            (primary,) = queue.pop_ready(1)
            queue.mark_running(primary.key)
            clock.tick(1.0)
            assert queue.record_attempt(primary.key) == 1
            queue.requeue(primary.key)
            clock.tick(0.25)
            queue.pop_ready(1)
            queue.mark_running(primary.key)
            clock.tick(2.0)
            queue.finish(primary.key, result=None, spans=ENGINE_SPANS)
            return job

        job = asyncio.run(_drive())
        spans = queue.trace(context.trace_id)
        runs = sorted((s for s in spans if s.name == "run"), key=lambda s: s.start)
        assert [r.attrs for r in runs] == [
            {"attempt": 1, "failed": True},
            {"attempt": 2},
        ]
        assert [(r.start, r.end) for r in runs] == [(1000.5, 1001.5), (1001.75, 1003.75)]
        assert runs[0].span_id != runs[1].span_id
        engine = [s for s in spans if s.clock == "sim"]
        assert {s.parent_id for s in engine} == {runs[1].span_id}
        execute = by_name(spans)["execute"]
        assert (execute.start, execute.end) == (1000.5, 1003.75)
        status = job.as_dict()
        assert status["attempts"] == 1
        assert (status["wait_s"], status["run_s"]) == (0.5, 3.25)

    def test_engine_payloads_are_kept_for_bounded_groups(self, sequential_ids):
        queue = JobQueue(ServiceMetrics(), clock=FakeClock())
        contexts = [TraceContext.mint() for _ in range(ENGINE_TRACE_GROUPS + 1)]

        async def _drive():
            for index, context in enumerate(contexts):
                job = queue.submit(sim(scale=0.1 + index / 1000), trace=context)
                queue.pop_ready(1)
                queue.mark_running(job.key)
                queue.finish(job.key, result=None, spans=ENGINE_SPANS)

        asyncio.run(_drive())
        assert ENGINE_TRACE_GROUPS == 256
        with_engine = [
            any(s.clock == "sim" for s in queue.trace(c.trace_id)) for c in contexts
        ]
        assert with_engine == [False] + [True] * ENGINE_TRACE_GROUPS
        # The oldest trace is still served, only without engine spans.
        oldest = sorted(s.name for s in queue.trace(contexts[0].trace_id))
        assert oldest == ["execute", "queue.wait", "request", "run"]


class TestInFlightTrace:
    def test_trace_survives_many_later_submissions(self, monkeypatch):
        """A job queued while 257 cache hits arrive on other traces keeps
        its whole trace: nothing evicts part of it while it is in flight."""
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        clear_run_cache()
        run_simulation("jacobi", "gps", 2, scale=0.1, iterations=2)  # seed the memo
        context = TraceContext.mint()

        async def _drive():
            service = SimulationService(ServiceSettings(port=0))
            await service.start()
            try:
                job = service.queue.submit(sim(), trace=context)
                for _ in range(257):
                    hit = service.queue.submit(sim(scale=0.1), trace=TraceContext.mint())
                    assert hit.cache_hit
                await asyncio.wait_for(job.future, 60)
                client = ServiceClient(f"http://{service.host}:{service.port}")
                trace = await asyncio.to_thread(client.trace, context.trace_id)
                perfetto = await asyncio.to_thread(client.trace, context.trace_id, True)
            finally:
                await service.shutdown(drain=False)
            return trace, perfetto

        try:
            trace, perfetto = asyncio.run(_drive())
        finally:
            clear_run_cache()
        names = {span["name"] for span in trace["spans"]}
        assert {"request", "queue.wait", "execute", "run"} <= names
        assert any(span["kind"] == "engine" for span in trace["spans"])
        roots = [e for e in perfetto["traceEvents"] if e["name"] == "client.submit"]
        assert [root["args"]["span_id"] for root in roots] == [context.span_id]


class TestLiveTracePropagation:
    FAST = dict(scale=0.1, iterations=2, gpus=2)

    def test_submit_carries_client_trace_end_to_end(self, live_service):
        client = live_service.client()
        job = client.submit("jacobi", **self.FAST)
        trace_id = job["client_trace"]["trace_id"]
        assert job["trace_id"] == trace_id
        client.wait(job["id"], timeout=60)

        trace = client.trace(trace_id)
        names = {span["name"] for span in trace["spans"]}
        assert {"request", "queue.wait", "execute", "run"} <= names
        engine = [s for s in trace["spans"] if s["kind"] == "engine"]
        assert engine, "engine spans were not re-parented under the trace"
        perfetto = client.trace(trace_id, perfetto=True)
        assert validate_chrome_trace(perfetto) == []
        # Terminal traces are frozen: two fetches serialise identically.
        again = client.trace(trace_id, perfetto=True)
        assert json.dumps(perfetto, sort_keys=True) == json.dumps(again, sort_keys=True)


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    clear_run_cache()
    set_id_generator(SequentialIds())
    try:
        queue, trace_id = drive_full_chain(FakeClock())
        payload = perfetto_trace(trace_id, queue.trace(trace_id))
        GOLDEN.write_text(dump_chrome_trace(payload))
        print(f"wrote {GOLDEN}")
    finally:
        set_id_generator(None)
