"""repro.obs.distributed: contexts and id generators; distributed spans' export."""

import pytest

from repro.obs import Span, chrome_trace, dump_chrome_trace, validate_chrome_trace
from repro.obs.distributed import (
    SequentialIds,
    TraceContext,
    derived_span_id,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    set_id_generator,
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


class TestExport:
    def _spans(self):
        """One request's service spans plus one re-parented engine span."""

        def service(name, span_id, parent_id, start, end, category="internal", track="job"):
            return Span(name, category, track, start, end, clock="service",
                        trace_id="t1", span_id=span_id, parent_id=parent_id)

        return [
            service("request", "r", "client-root", 1000.0, 1003.5, "server", "server"),
            service("queue.wait", "q", "r", 1000.5, 1001.5),
            service("execute", "e", "r", 1001.5, 1002.5),
            service("run", "u", "e", 1001.5, None, track="attempt"),
            Span("k", "kernel", "gpu0", 1001.5, 1001.75,
                 {"sim_start": 0.0, "sim_end": 0.25},
                 trace_id="t1", span_id=derived_span_id("u", 0), parent_id="u"),
        ]

    def test_export_is_schema_valid(self, sequential_ids):
        payload = chrome_trace(self._spans(), {"trace_id": "t1"})
        assert validate_chrome_trace(payload) == []

    def test_lanes_split_service_and_engine(self, sequential_ids):
        payload = chrome_trace(self._spans(), {"trace_id": "t1"})
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        assert by_name["k"]["pid"] == 1
        assert by_name["request"]["pid"] == 0
        assert by_name["k"]["cat"] == "kernel"
        assert by_name["request"]["args"]["parent_id"] == "client-root"
        # Timestamps are rebased: the earliest slice starts at zero.
        assert min(e["ts"] for e in slices) == 0.0
        # An open span exports with zero duration.
        assert by_name["run"]["dur"] == 0.0

    def test_dump_is_byte_stable(self, sequential_ids):
        first = dump_chrome_trace(chrome_trace(self._spans()))
        second = dump_chrome_trace(chrome_trace(self._spans()))
        assert first == second
        assert first.endswith("\n")

    def test_empty_trace_exports_empty(self):
        payload = chrome_trace([], {"trace_id": "t1"})
        assert payload["traceEvents"] == []
        assert payload["otherData"]["trace_id"] == "t1"
