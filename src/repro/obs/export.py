"""Exporters: Chrome-trace/Perfetto JSON, flat metrics, run manifests.

The trace format is the Chrome trace-event JSON object form (a dict with a
``traceEvents`` list of complete ``"X"`` events plus ``"M"`` metadata
events), which https://ui.perfetto.dev and ``chrome://tracing`` both load
directly. :func:`chrome_trace` is the one writer for every span: one
process per clock, one thread per track (a simulator resource such as
``gpu0`` or ``egress2``, or a service lane); timestamps are seconds scaled
to microseconds.

:func:`validate_chrome_trace` is the schema check CI runs against every
exported trace — it enforces the structural invariants the simulator
guarantees (typed fields, and per-track spans that are monotonic and
non-overlapping, because engine resources serialise).
"""

from __future__ import annotations

import csv
import io
import json
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .span import CLOCK_SERVICE, CLOCK_SIM, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..config import SystemConfig
    from ..system.results import SimulationResult

#: Span seconds -> trace microseconds.
_US = 1e6

#: One trace process per clock, in pid order, with its display name.
_PROCESS = {CLOCK_SERVICE: "service (wall clock)", CLOCK_SIM: "engine (simulated time)"}

#: Track ordering in the trace UI: compute first, then the port pairs.
_TRACK_ORDER = {"gpu": 0, "egress": 1, "ingress": 2}

_TRACK_NAME = re.compile(r"^([a-z_]+?)(\d+)$")


def _track_sort_key(track: str) -> tuple:
    match = _TRACK_NAME.match(track)
    if match is None:
        return (len(_TRACK_ORDER), track, 0)
    prefix, index = match.group(1), int(match.group(2))
    return (_TRACK_ORDER.get(prefix, len(_TRACK_ORDER)), prefix, index)


def chrome_trace(spans: Iterable[Span], other_data: "dict | None" = None) -> dict:
    """Build a Chrome trace-event JSON object from a span list.

    Every clock present becomes one process (``service`` before ``sim``),
    every track one thread of its clock's process, named and ordered by
    :func:`_track_sort_key` via metadata events. Every span becomes one
    complete ``"X"`` event with its attributes under ``args``, plus its
    ids and links when it belongs to a distributed trace. Timestamps are
    rebased to the earliest span; an open span exports with zero duration.
    ``other_data`` (e.g. :func:`run_manifest`) lands under ``otherData``.
    """
    spans = list(spans)
    clocks = {span.clock for span in spans}
    pids = {clock: pid for pid, clock in enumerate(c for c in _PROCESS if c in clocks)}
    spans.sort(
        key=lambda s: (
            pids[s.clock],
            _track_sort_key(s.track),
            s.start,
            s.start if s.end is None else s.end,
        )
    )
    # Sorted spans meet their lanes in lane order: tids follow it.
    lanes = dict.fromkeys((span.clock, span.track) for span in spans)
    tids = {lane: tid for tid, lane in enumerate(lanes)}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": _PROCESS[clock]}}
        for clock, pid in pids.items()
    ]
    for (clock, track), tid in tids.items():
        pid = pids[clock]
        events.append(
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": track}}
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
    base = min((span.start for span in spans), default=0.0)
    for span in spans:
        args = dict(span.attrs)
        if span.trace_id is not None:
            args.update(trace_id=span.trace_id, span_id=span.span_id, parent_id=span.parent_id)
        if span.links:
            args["links"] = [dict(link) for link in span.links]
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": pids[span.clock],
                "tid": tids[span.clock, span.track],
                "ts": (span.start - base) * _US,
                "dur": (span.duration or 0.0) * _US,
                "args": args,
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if other_data is not None:
        payload["otherData"] = other_data
    return payload


def dump_chrome_trace(payload: dict) -> str:
    """Canonical serialisation of a trace payload (byte-stable)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_chrome_trace(
    path: "str | Path", spans: Iterable[Span], other_data: "dict | None" = None
) -> dict:
    """Serialise :func:`chrome_trace` to ``path``; returns the payload."""
    payload = chrome_trace(spans, other_data)
    Path(path).write_text(dump_chrome_trace(payload))
    return payload


def validate_chrome_trace(payload: object) -> "list[str]":
    """Schema-check one trace payload; returns a list of problems (empty = ok).

    Checks the object form, the typed fields of every event, and — per
    track — that complete events are start-monotonic and non-overlapping
    (the invariant serialising resources guarantee). CI runs this against
    the trace the ``repro trace`` CLI emits, so exporter drift fails fast.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top-level payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    by_thread: dict[tuple, list] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"event {i}: unsupported phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i}: name is not a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"event {i}: {key} is not an integer")
        if phase == "M":
            continue
        if not isinstance(event.get("cat"), str):
            problems.append(f"event {i}: cat is not a string")
        ok = True
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"event {i}: {key} is not a non-negative number")
                ok = False
        if ok:
            by_thread.setdefault((event["pid"], event["tid"]), []).append((event["ts"], event["dur"], i))
    for (pid, tid), rows in by_thread.items():
        cursor = None
        for ts, dur, i in rows:
            if cursor is not None and ts < cursor - 1e-6:
                problems.append(
                    f"event {i}: overlaps the previous span on pid={pid} tid={tid} "
                    f"(starts {ts} before {cursor})"
                )
            cursor = max(cursor, ts + dur) if cursor is not None else ts + dur
    return problems


def run_manifest(
    result: "SimulationResult",
    config: "SystemConfig",
    wall_clock: "float | None" = None,
) -> dict:
    """Provenance block written next to every exported trace.

    Carries the complete canonical config fingerprint and the model version
    string (the same pair that keys the persistent result cache), so a trace
    file is always attributable to one exact simulator configuration.
    """
    from ..config import config_fingerprint  # local: keeps obs import-light
    from ..harness.runner.fingerprint import MODEL_FINGERPRINT

    manifest = {
        "program": result.program_name,
        "paradigm": result.paradigm,
        "num_gpus": result.num_gpus,
        "total_time_s": result.total_time,
        "config_fingerprint": config_fingerprint(config),
        "model": MODEL_FINGERPRINT,
        "created_unix": time.time(),
    }
    if wall_clock is not None:
        manifest["wall_clock_s"] = wall_clock
    return manifest


def metrics_json(result: "SimulationResult") -> dict:
    """Flat metrics view of one run: summary fields plus every counter."""
    return {
        "program": result.program_name,
        "paradigm": result.paradigm,
        "num_gpus": result.num_gpus,
        "total_time_s": result.total_time,
        "interconnect_bytes": result.interconnect_bytes,
        "counters": dict(sorted(result.counters.items())),
    }


def metrics_csv(result: "SimulationResult") -> str:
    """Counters as two-column CSV (``counter,value``), sorted by name."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["counter", "value"])
    for name, value in sorted(result.counters.items()):
        writer.writerow([name, value])
    return buffer.getvalue()
