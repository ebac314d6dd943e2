"""Distributed tracing for the service path: W3C contexts, spans, export.

A single run's spans (:meth:`repro.sim.engine.Engine.spans`) stop at the
boundary of one simulation; this module is the layer that stitches a
*request's* journey through the service — client submit → HTTP → queue wait
→ scheduler batch → pool worker → engine spans — into one trace.

Three pieces:

* **trace context** — W3C-style ``traceparent`` headers
  (``00-<32-hex trace id>-<16-hex span id>-01``) minted by
  ``ServiceClient.submit`` and propagated through the HTTP layer into
  :class:`repro.service.queue.Job`;
* **:class:`DistSpan`** — one wall-clock span (request, queue.wait,
  execute, run) or re-parented engine span, with cross-trace *links* for
  coalesced submitters. The service stores no spans: it derives them from
  its job records on demand (:meth:`repro.service.queue.JobQueue.trace`);
* **export** — Chrome-trace/Perfetto JSON of one trace's closure (own spans
  plus linked execution trees), with the wall-clock service spans on one
  process and the simulated-clock engine spans on another.

Re-parenting rules (also in ``docs/OBSERVABILITY.md``):

1. the server's ``request`` span is a child of the client's root span id
   (taken from ``traceparent``); the client root itself is synthesised at
   export time as ``client.submit``, covering its children;
2. one *execution* span (``execute``) exists per job group, on the trace of
   the group's **primary** (first) submitter; coalesced submitters carry a
   ``coalesced`` span in their own trace whose ``links`` reference the
   shared execution span;
3. each dispatch attempt opens a ``run`` span under ``execute``; the
   engine's :class:`~repro.obs.span.Span` list from the pool worker is
   re-parented under the successful attempt's ``run`` span, with
   deterministic span ids (``sha256(parent_id/index)``) and simulated-clock
   timestamps anchored at the ``run`` span's start.

Every server-side span id is derived, never minted: a job's spans use
:func:`derived_span_id` over ``(trace id, job id, role, attempt)``, so two
fetches of a trace are byte-identical and a coalesced submitter's link
resolves to the id the primary's trace shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

#: Exporter scale: seconds -> trace microseconds.
_US = 1e6

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})-(?P<span>[0-9a-f]{16})"
    r"-(?P<flags>[0-9a-f]{2})$"
)

#: Span kinds (loosely OpenTelemetry's): who recorded the span.
KIND_CLIENT = "client"
KIND_SERVER = "server"
KIND_INTERNAL = "internal"
KIND_ENGINE = "engine"


def _random_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class IdGenerator:
    """Source of trace/span ids; swappable for deterministic tests."""

    def trace_id(self) -> str:
        return _random_hex(16)

    def span_id(self) -> str:
        return _random_hex(8)


class SequentialIds(IdGenerator):
    """Deterministic counter-based ids (tests and golden files)."""

    def __init__(self, seed: int = 0) -> None:
        self._n = seed

    def trace_id(self) -> str:
        self._n += 1
        return f"{self._n:032x}"

    def span_id(self) -> str:
        self._n += 1
        return f"{self._n:016x}"


_IDS: IdGenerator = IdGenerator()


def set_id_generator(generator: "IdGenerator | None") -> None:
    """Install an id source (``None`` restores the random default)."""
    global _IDS
    _IDS = generator if generator is not None else IdGenerator()


def mint_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return _IDS.trace_id()


def mint_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return _IDS.span_id()


def derived_span_id(parent_id: str, index: int) -> str:
    """Deterministic span id — every server-side span uses these.

    Two exports of the same execution tree (e.g. from two coalesced
    submitters following their links) must produce identical ids, so the id
    is a pure function of the parent (or job role) and the span's position.
    """
    digest = hashlib.sha256(f"{parent_id}/{index}".encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class TraceContext:
    """One W3C-style trace context (``traceparent`` header triple)."""

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context (new trace id + root span id)."""
        return cls(mint_trace_id(), mint_span_id())

    def child(self) -> "TraceContext":
        """Same trace, fresh span id."""
        return TraceContext(self.trace_id, mint_span_id(), self.sampled)

    def to_traceparent(self) -> str:
        """Render the ``traceparent`` header value."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"


def parse_traceparent(header: "str | None") -> "TraceContext | None":
    """Parse a ``traceparent`` header; ``None`` on anything malformed.

    All-zero trace or span ids and the forbidden version ``ff`` are invalid
    per the W3C spec and rejected.
    """
    if not header:
        return None
    match = _TRACEPARENT.match(header.strip().lower())
    if match is None or match.group("version") == "ff":
        return None
    trace_id, span_id = match.group("trace"), match.group("span")
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    sampled = bool(int(match.group("flags"), 16) & 0x01)
    return TraceContext(trace_id, span_id, sampled)


@dataclass
class DistSpan:
    """One wall-clock span of the distributed service trace.

    ``end`` is ``None`` while the span is open. ``links`` carries
    cross-trace references (``{"trace_id": ..., "span_id": ...}``) — a
    coalesced submitter links to the shared execution span. ``track`` names
    the export lane (``server``, ``job``, ``attempt``, engine resource
    names) so sibling spans that overlap in time land on different Perfetto
    threads.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: "str | None"
    start: float
    end: "float | None" = None
    kind: str = KIND_INTERNAL
    track: str = "job"
    attrs: dict = field(default_factory=dict)
    links: list = field(default_factory=list)

    @property
    def duration(self) -> "float | None":
        """Span length in seconds, ``None`` while open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        """JSON-safe representation (the ``GET /traces/{id}`` row format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "track": self.track,
            "attrs": dict(self.attrs),
            "links": [dict(link) for link in self.links],
        }


def synthesize_roots(spans: "list[DistSpan]") -> "list[DistSpan]":
    """Add ``client.submit`` roots for parent ids no stored span owns.

    The client's root span lives client-side (the server only ever sees its
    id in ``traceparent``), so exports synthesise it: one span per orphan
    parent id, covering its children's window.
    """
    known = {span.span_id for span in spans}
    orphans: "dict[tuple[str, str], list[DistSpan]]" = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id not in known:
            orphans.setdefault((span.trace_id, span.parent_id), []).append(span)
    synthesized = []
    for (trace_id, parent_id), children in sorted(orphans.items()):
        start = min(child.start for child in children)
        ends = [child.end for child in children if child.end is not None]
        synthesized.append(
            DistSpan(
                name="client.submit",
                trace_id=trace_id,
                span_id=parent_id,
                parent_id=None,
                start=start,
                end=max(ends) if ends else None,
                kind=KIND_CLIENT,
                track="client",
                attrs={"synthesized": True},
            )
        )
    return spans + synthesized


def distributed_chrome_trace(
    trace_id: str, spans: "list[DistSpan]", rebase: "float | None" = None
) -> dict:
    """Chrome-trace/Perfetto JSON for one distributed trace closure.

    Process 0 (``service (wall clock)``) carries the service-side spans,
    one thread per ``(trace, track)`` lane; process 1
    (``engine (simulated time)``) carries re-parented engine spans, one
    thread per engine resource track. Timestamps are rebased to the
    earliest span (or ``rebase``) so the trace starts at zero — exporting
    the same span set twice yields byte-identical JSON.

    Open spans export with their current extent (duration 0 minimum);
    ``args`` carry the span/parent ids so the tree is reconstructible in
    the UI.
    """
    spans = synthesize_roots(sorted(spans, key=lambda s: (s.start, s.trace_id, s.span_id)))
    spans.sort(key=lambda s: (s.start, s.trace_id, s.span_id))
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {"trace_id": trace_id}}
    base = min(span.start for span in spans) if rebase is None else rebase

    def lane(span: DistSpan) -> "tuple[int, str]":
        if span.kind == KIND_ENGINE:
            return 1, span.track
        prefix = "" if span.trace_id == trace_id else f"{span.trace_id[:8]}/"
        return 0, f"{prefix}{span.track}"

    lanes: "list[tuple[int, str]]" = []
    for span in spans:
        key = lane(span)
        if key not in lanes:
            lanes.append(key)
    lanes.sort()
    tids = {key: tid for tid, key in enumerate(lanes)}
    events: "list[dict]" = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "service (wall clock)"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "engine (simulated time)"},
        },
    ]
    for (pid, name), tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": name}}
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for span in spans:
        pid, _ = key = lane(span)
        end = span.end if span.end is not None else span.start
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "kind": span.kind,
        }
        args.update(span.attrs)
        if span.links:
            args["links"] = [dict(link) for link in span.links]
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "pid": pid,
                "tid": tids[key],
                "ts": max(0.0, (span.start - base) * _US),
                "dur": max(0.0, (end - span.start) * _US),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id},
    }


def dump_chrome_trace(payload: dict) -> str:
    """Canonical serialisation of a chrome-trace payload (byte-stable)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"
