"""Structured spans: the one unit record of the tracing layer.

A span is one interval on one track, read on one clock:

* ``sim`` — one scheduled occupancy of one serialising resource (a kernel
  on a GPU, a publish on an egress port). The DES engine derives these
  after scheduling (start/end come from the schedule, not wall clock), so
  a trace is an exact, replayable picture of where simulated time went.
* ``service`` — one step of a service job (request, queue wait, execute,
  dispatch attempt), in wall-clock seconds, derived from the queue's job
  records.

Spans of a distributed trace also carry W3C-style ids (``trace_id``,
``span_id``, ``parent_id``) and cross-trace ``links``; engine spans carry
them once the service re-parents them under a request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Well-known span categories. Free-form strings are allowed; the engine's
#: paradigm executors emit the first four, the service the last three.
CATEGORY_KERNEL = "kernel"
CATEGORY_TRANSFER = "transfer"
CATEGORY_BARRIER = "barrier"
CATEGORY_TASK = "task"
CATEGORY_CLIENT = "client"
CATEGORY_SERVER = "server"
CATEGORY_INTERNAL = "internal"

#: The clocks a span's ``start``/``end`` can be read on.
CLOCK_SIM = "sim"
CLOCK_SERVICE = "service"


@dataclass(frozen=True)
class Span:
    """One interval on one track.

    ``track`` is the lane (a resource such as ``gpu0`` or ``egress2``, or a
    service lane such as ``server``); ``attrs`` carries structured metadata
    the emitter attached (payload bytes, source/destination GPU, phase
    name). Spans on one sim-clock track never overlap — the engine's
    resources serialise by construction. ``end`` is ``None`` while the span
    is open; ``links`` holds ``{"trace_id", "span_id"}`` references to
    spans of other traces.
    """

    name: str
    category: str
    track: str
    start: float
    end: "float | None"
    attrs: Mapping[str, Any] = field(default_factory=dict)
    clock: str = CLOCK_SIM
    trace_id: "str | None" = None
    span_id: "str | None" = None
    parent_id: "str | None" = None
    links: "tuple[Mapping[str, str], ...]" = ()

    @property
    def duration(self) -> "float | None":
        """Span length in seconds of its clock, ``None`` while open."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        """JSON-safe representation of the interval (ids and clock left out)."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }
