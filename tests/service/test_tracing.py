"""Distributed tracing through the queue: re-parenting, links, golden export.

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

from repro.harness.runner import SimJob, clear_run_cache
from repro.obs import validate_chrome_trace
from repro.obs.distributed import (
    SequentialIds,
    TraceContext,
    TraceStore,
    derived_span_id,
    distributed_chrome_trace,
    dump_chrome_trace,
    set_id_generator,
)
from repro.service import JobQueue, ServiceMetrics

GOLDEN = Path(__file__).parent / "baselines" / "distributed_trace.golden.json"

#: Synthetic engine output, as the worker's ``Span.to_dict`` list.
ENGINE_PAYLOADS = [
    {"name": "k1", "category": "kernel", "track": "gpu0",
     "start": 0.0, "end": 2.0, "attrs": {"gpu": 0}},
    {"name": "x1", "category": "transfer", "track": "egress0",
     "start": 2.0, "end": 3.5, "attrs": {}},
]


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


def drive_full_chain(clock: FakeClock) -> "tuple[TraceStore, str]":
    """One traced submission through the whole queue lifecycle."""
    store = TraceStore(clock=clock)
    queue = JobQueue(ServiceMetrics(), tracer=store)
    context = TraceContext.mint()

    async def _drive() -> None:
        job = queue.submit(SimJob("jacobi", "gps", 2, "pcie6", 0.25, 2), trace=context)
        clock.tick(0.5)  # queue wait
        (primary,) = queue.pop_ready(1)
        queue.note_scheduled(primary.key, batch_seq=1, batch_size=1)
        queue.mark_running(primary.key)
        clock.tick(2.0)  # the attempt runs
        queue.attach_spans(primary.key, ENGINE_PAYLOADS)
        queue.finish(primary.key, result=None)
        assert job.state.value == "done"

    asyncio.run(_drive())
    return store, context.trace_id


class TestFullChain:
    def test_span_topology(self, sequential_ids):
        clock = FakeClock()
        store, trace_id = drive_full_chain(clock)
        spans = {s.name: s for s in store.get(trace_id)}
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
        store, trace_id = drive_full_chain(FakeClock())
        payload = distributed_chrome_trace(trace_id, store.closure(trace_id))
        assert validate_chrome_trace(payload) == []
        text = dump_chrome_trace(payload)
        assert text == GOLDEN.read_text(), (
            "distributed trace export drifted; if intentional, regenerate "
            "with\n  PYTHONPATH=src:tests python -c \"from service.test_tracing "
            "import *; regenerate_golden()\""
        )

    def test_export_has_both_lanes_and_synthesized_root(self, sequential_ids):
        store, trace_id = drive_full_chain(FakeClock())
        payload = distributed_chrome_trace(trace_id, store.closure(trace_id))
        slices = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        assert slices["request"]["pid"] == 0
        assert slices["k1"]["pid"] == 1
        # The client never reported its span; the export synthesizes it.
        assert slices["client.submit"]["args"]["synthesized"] is True
        assert slices["request"]["args"]["parent_id"] == (
            slices["client.submit"]["args"]["span_id"]
        )


class TestCoalescedTraces:
    def drive(self, clock: FakeClock):
        """Two same-fingerprint submissions; the second coalesces."""
        store = TraceStore(clock=clock)
        queue = JobQueue(ServiceMetrics(), tracer=store)
        context_a, context_b = TraceContext.mint(), TraceContext.mint()
        sim = SimJob("jacobi", "gps", 2, "pcie6", 0.25, 2)

        async def _drive() -> None:
            job_a = queue.submit(sim, trace=context_a)
            clock.tick(0.25)
            job_b = queue.submit(SimJob("jacobi", "gps", 2, "pcie6", 0.25, 2),
                                 trace=context_b)
            assert job_b.coalesced and job_b.key == job_a.key
            clock.tick(0.25)
            (primary,) = queue.pop_ready(1)
            assert primary.id == job_a.id
            queue.note_scheduled(primary.key, batch_seq=1, batch_size=1)
            queue.mark_running(primary.key)
            clock.tick(1.0)
            queue.attach_spans(primary.key, ENGINE_PAYLOADS)
            queue.finish(primary.key, result=None)
            assert job_a.state.value == job_b.state.value == "done"

        asyncio.run(_drive())
        return store, context_a.trace_id, context_b.trace_id

    def test_two_traces_share_one_execution(self, sequential_ids):
        store, trace_a, trace_b = self.drive(FakeClock())
        assert trace_a != trace_b

        # The duplicate's own trace holds only its request + coalesced
        # marker; the closure pulls the shared execution in via the link.
        own = sorted(s.name for s in store.get(trace_b))
        assert own == ["coalesced", "request"]
        closure = sorted(s.name for s in store.closure(trace_b))
        assert closure == ["coalesced", "execute", "k1", "request", "run", "x1"]

        coalesced = next(s for s in store.get(trace_b) if s.name == "coalesced")
        execute = next(s for s in store.get(trace_a) if s.name == "execute")
        assert coalesced.links == [
            {"trace_id": trace_a, "span_id": execute.span_id}
        ]
        assert execute.attrs["group_size"] == 2
        # The primary's closure never leaks the duplicate's spans.
        assert "coalesced" not in {s.name for s in store.closure(trace_a)}

    def test_duplicate_export_is_byte_stable_and_valid(self, sequential_ids):
        store, trace_a, trace_b = self.drive(FakeClock())
        for trace_id in (trace_a, trace_b):
            payload = distributed_chrome_trace(trace_id, store.closure(trace_id))
            assert validate_chrome_trace(payload) == []
            assert dump_chrome_trace(payload) == dump_chrome_trace(
                distributed_chrome_trace(trace_id, store.closure(trace_id))
            )
        # The foreign execution subtree lands on a prefixed wall-clock track.
        payload = distributed_chrome_trace(trace_b, store.closure(trace_b))
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"coalesced", "execute", "run", "k1"} <= names


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
        store, trace_id = drive_full_chain(FakeClock())
        payload = distributed_chrome_trace(trace_id, store.closure(trace_id))
        GOLDEN.write_text(dump_chrome_trace(payload))
        print(f"wrote {GOLDEN}")
    finally:
        set_id_generator(None)
