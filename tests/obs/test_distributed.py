"""repro.obs.distributed: contexts, id generators, root synthesis, export."""

import pytest

from repro.obs import validate_chrome_trace
from repro.obs.distributed import (
    DistSpan,
    SequentialIds,
    TraceContext,
    derived_span_id,
    distributed_chrome_trace,
    dump_chrome_trace,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    set_id_generator,
    synthesize_roots,
)


@pytest.fixture
def sequential_ids():
    set_id_generator(SequentialIds())
    yield
    set_id_generator(None)


class TestTraceContext:
    def test_mint_and_roundtrip(self):
        context = TraceContext.mint()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        assert parse_traceparent(context.to_traceparent()) == context

    def test_child_keeps_trace(self):
        context = TraceContext.mint()
        child = context.child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id

    def test_unsampled_flag_roundtrips(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-00"
        context = parse_traceparent(header)
        assert context is not None and not context.sampled
        assert context.to_traceparent() == header

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
            "00-" + "xy" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span id
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # forbidden version
        ],
    )
    def test_rejects_malformed(self, header):
        assert parse_traceparent(header) is None

    def test_parse_is_case_insensitive(self):
        header = "00-" + "AB" * 16 + "-" + "CD" * 8 + "-01"
        context = parse_traceparent(header)
        assert context is not None and context.trace_id == "ab" * 16


class TestIdGenerators:
    def test_sequential_is_deterministic(self):
        a, b = SequentialIds(), SequentialIds()
        assert [a.trace_id(), a.span_id()] == [b.trace_id(), b.span_id()]
        assert a.trace_id() != a.trace_id()

    def test_install_and_restore(self, sequential_ids):
        assert mint_trace_id() == f"{1:032x}"
        assert mint_span_id() == f"{2:016x}"
        set_id_generator(None)
        assert mint_trace_id() != f"{3:032x}"

    def test_derived_span_id_is_pure(self):
        assert derived_span_id("abc", 0) == derived_span_id("abc", 0)
        assert derived_span_id("abc", 0) != derived_span_id("abc", 1)
        assert derived_span_id("abc", 0) != derived_span_id("abd", 0)
        assert len(derived_span_id("abc", 7)) == 16


class TestSynthesizeRoots:
    def test_orphan_parent_becomes_client_submit(self):
        spans = [
            DistSpan("request", "t1", "s2", "s1", 10.0, 13.0, track="server"),
            DistSpan("queue.wait", "t1", "s3", "s2", 10.5, 11.0),
        ]
        out = synthesize_roots(spans)
        roots = [s for s in out if s.name == "client.submit"]
        assert len(roots) == 1
        root = roots[0]
        assert (root.span_id, root.parent_id) == ("s1", None)
        assert (root.start, root.end) == (10.0, 13.0)
        assert root.attrs == {"synthesized": True}

    def test_no_orphans_no_synthesis(self):
        spans = [DistSpan("request", "t1", "s1", None, 0.0, 1.0)]
        assert synthesize_roots(spans) == spans


class TestExport:
    def _spans(self):
        """One request's service spans plus one re-parented engine span."""
        return [
            DistSpan("request", "t1", "r", "client-root", 1000.0, 1003.5,
                     kind="server", track="server"),
            DistSpan("queue.wait", "t1", "q", "r", 1000.5, 1001.5),
            DistSpan("execute", "t1", "e", "r", 1001.5, 1002.5),
            DistSpan("run", "t1", "u", "e", 1001.5, 1002.5, track="attempt"),
            DistSpan("k", "t1", derived_span_id("u", 0), "u", 1001.5, 1001.75,
                     kind="engine", track="gpu0",
                     attrs={"sim_start": 0.0, "sim_end": 0.25, "category": "kernel"}),
        ]

    def test_export_is_schema_valid(self, sequential_ids):
        payload = distributed_chrome_trace("t1", self._spans())
        assert validate_chrome_trace(payload) == []

    def test_lanes_split_service_and_engine(self, sequential_ids):
        payload = distributed_chrome_trace("t1", self._spans())
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        assert by_name["k"]["pid"] == 1
        assert by_name["request"]["pid"] == 0
        assert by_name["client.submit"]["args"]["span_id"] == "client-root"
        # Timestamps are rebased: the earliest slice starts at zero.
        assert min(e["ts"] for e in slices) == 0.0

    def test_dump_is_byte_stable(self, sequential_ids):
        first = dump_chrome_trace(distributed_chrome_trace("t1", self._spans()))
        second = dump_chrome_trace(distributed_chrome_trace("t1", self._spans()))
        assert first == second
        assert first.endswith("\n")

    def test_empty_trace_exports_empty(self):
        payload = distributed_chrome_trace("t1", [])
        assert payload["traceEvents"] == []
        assert payload["otherData"]["trace_id"] == "t1"
