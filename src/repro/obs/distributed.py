"""Distributed tracing for the service path: W3C trace contexts and span ids.

A single run's spans (:meth:`repro.sim.engine.Engine.spans`) stop at the
boundary of one simulation; the service stitches a *request's* journey —
client submit → HTTP → queue wait → dispatch attempt → pool worker → engine
spans — into one trace of :class:`~repro.obs.span.Span` records, derived
from its job records on demand (:meth:`repro.service.queue.JobQueue.trace`).
This module holds what that needs besides the record: W3C-style
``traceparent`` headers (``00-<32-hex trace id>-<16-hex span id>-01``),
minted by ``ServiceClient.submit`` and propagated through the HTTP layer
into :class:`repro.service.queue.Job`, and the span-id sources.

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
import os
import re
from dataclasses import dataclass

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})-(?P<span>[0-9a-f]{16})"
    r"-(?P<flags>[0-9a-f]{2})$"
)

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
