"""Outside-in host-time spans around the public functions of each layer.

The benchmark measures the simulator without editing it: a traced round
replaces each layer's public entry points (listed in :data:`LAYERS`) with a
wrapper that records one span per call — layer name, start and end on the
host monotonic clock, and the recording process and thread. Spans are kept
in memory; a forked worker appends its spans to a per-pid file after every
top-level call, because pool workers leave through ``os._exit`` and would
otherwise lose them.

A layer's *self time* is its span durations minus the part covered by
child spans on the same thread (:func:`self_times`). Untraced rounds never
install the wrappers, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One call into a layer, on one thread of one process."""

    name: str
    start_ns: int
    end_ns: int
    pid: int
    tid: int
    #: Work items the call handled (lines, stores, tasks), or ``None``.
    count: "int | None" = None

    @property
    def lane(self) -> "tuple[int, int]":
        """The (process, thread) timeline the span nests on."""
        return self.pid, self.tid

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_list(self) -> list:
        return [self.name, self.start_ns, self.end_ns, self.pid, self.tid, self.count]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Recorder:
    """In-memory span sink shared by every wrapper of one process tree."""

    def __init__(self, flush_dir: "str | Path | None" = None) -> None:
        self.owner_pid = os.getpid()
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.spans: "list[Span]" = []
        self.active = False
        #: Extra per-process counters a forked worker ships with its spans.
        self.snapshot = None
        self._depth = threading.local()
        self._lock = threading.Lock()

    def after_fork_in_child(self) -> None:
        """A forked worker starts with no spans and no open calls."""
        self.spans = []
        self._depth = threading.local()
        self._lock = threading.Lock()

    def record(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so each call while active records a span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            local = recorder._depth
            depth = getattr(local, "value", 0)
            local.value = depth + 1
            items = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    items = count(args, result)
                return result
            finally:
                end = time.perf_counter_ns()
                local.value = depth
                span = Span(name, start, end, os.getpid(), threading.get_ident(), items)
                with recorder._lock:
                    recorder.spans.append(span)
                if depth == 0 and os.getpid() != recorder.owner_pid:
                    recorder.flush()

        return wrapper

    def flush(self) -> None:
        """Append this process's spans to ``spans-<pid>.jsonl`` and drop them."""
        if self.flush_dir is None:
            return
        with self._lock:
            spans, self.spans = self.spans, []
        record = {"spans": [s.to_list() for s in spans]}
        if self.snapshot is not None:
            record["snapshot"] = self.snapshot()
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def collect(self) -> "tuple[list[Span], dict[int, dict]]":
        """Own spans plus every flushed worker's, and each worker's last snapshot."""
        spans = list(self.spans)
        snapshots: "dict[int, dict]" = {}
        if self.flush_dir is not None:
            for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
                pid = int(path.stem.split("-", 1)[1])
                for line in path.read_text(encoding="utf-8").splitlines():
                    record = json.loads(line)
                    spans.extend(Span.from_list(row) for row in record["spans"])
                    if "snapshot" in record:
                        snapshots[pid] = record["snapshot"]
        return spans, snapshots


# -- where each layer is entered ---------------------------------------------

def _len_arg(args, result):
    return len(args[1])


def _len_result(args, result):
    return len(result)


def _engine_tasks(args, result):
    return args[0].num_tasks


def _layer_targets():
    """``(owner, attribute, span name, count)`` for every wrapped entry point.

    ``owner`` is a class (the method is replaced on it) or the module that
    defines a function (the function is replaced in every ``repro`` module
    that imported it by name).
    """
    from repro.analysis import engine as analysis_engine
    from repro.cache.cache import Cache
    from repro.core.gps_unit import GPSUnit
    from repro.gpu import sm_coalescer
    from repro.harness.runner import disk, memo, parallel
    from repro.paradigms.base import ParadigmExecutor
    from repro.paradigms.registry import PARADIGMS
    from repro.sim.engine import Engine
    from repro.system import analysis as system_analysis
    from repro.system.results import SimulationResult
    from repro.trace import expand
    from repro.workloads.registry import WORKLOADS

    targets = [
        (analysis_engine, "check_program", "analysis.check", None),
        (expand, "expand_range", "trace.expand", _len_result),
        (sm_coalescer, "sm_coalesce", "gpu.coalesce", None),
        (Cache, "simulate_stream", "cache.l2", _len_arg),
        (GPSUnit, "process_stores", "core.replay", _len_arg),
        (GPSUnit, "sync", "core.replay", None),
        (ParadigmExecutor, "run", "paradigms.walk", None),
        (Engine, "run", "sim.engine", _engine_tasks),
        (SimulationResult, "to_dict", "system.assemble", None),
        (system_analysis, "get_analysis", "system.get_analysis", None),
        (system_analysis.ProgramAnalysis, "__init__", "system.analysis_build", None),
        (memo, "lookup", "harness.lookup", None),
        (memo, "store", "harness.store", None),
        (disk.DiskCache, "get", "harness.cache_get", None),
        (disk.DiskCache, "put", "harness.cache_put", None),
        (parallel, "compute_job", "harness.compute", None),
        (parallel, "run_many_settled", "harness.run_many", None),
        (parallel, "run_many_traced_settled", "harness.run_many", None),
    ]
    for cls in {type(w) for w in WORKLOADS.values()}:
        targets.append((cls, "build", "workloads.build", None))
    for cls in set(PARADIGMS.values()):
        for klass in cls.__mro__:
            if "build_result" in vars(klass):
                targets.append((klass, "build_result", "system.assemble", None))
    return targets


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point; spans record only while ``recorder.active``."""
    os.register_at_fork(after_in_child=recorder.after_fork_in_child)
    done = set()
    for owner, attr, name, count in _layer_targets():
        original = vars(owner).get(attr)
        if original is None or (id(owner), attr) in done:
            continue
        done.add((id(owner), attr))
        wrapped = recorder.record(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (
                namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(attr) is original
            ):
                setattr(module, attr, wrapped)


# -- analysis ---------------------------------------------------------------

def self_times(spans: "list[Span]") -> "dict[str, float]":
    """Seconds per span name, excluding time covered by nested spans.

    Spans nest per (process, thread) lane: a span's parent is the innermost
    earlier span on its lane that contains it. A child sticking out of its
    parent (impossible for calls on one thread) is clipped to the parent.
    """
    totals: "dict[str, int]" = {}
    lanes: "dict[tuple[int, int], list[Span]]" = {}
    for span in spans:
        lanes.setdefault(span.lane, []).append(span)
    for lane_spans in lanes.values():
        lane_spans.sort(key=lambda s: (s.start_ns, -s.end_ns))
        # Each stack entry: [span, nanoseconds covered by direct children].
        stack: "list[list]" = []

        def close(entry: list) -> None:
            span, covered = entry
            totals[span.name] = totals.get(span.name, 0) + max(0, span.duration_ns - covered)

        for span in lane_spans:
            while stack and stack[-1][0].end_ns <= span.start_ns:
                close(stack.pop())
            if stack:
                parent = stack[-1][0]
                stack[-1][1] += min(span.end_ns, parent.end_ns) - span.start_ns
            stack.append([span, 0])
        while stack:
            close(stack.pop())
    return {name: ns / 1e9 for name, ns in totals.items()}


def lane_coverage(spans: "list[Span]") -> "dict[tuple[int, int], float]":
    """Seconds of each lane covered by at least one span (union of intervals)."""
    lanes: "dict[tuple[int, int], list[Span]]" = {}
    for span in spans:
        lanes.setdefault(span.lane, []).append(span)
    coverage = {}
    for lane, lane_spans in lanes.items():
        lane_spans.sort(key=lambda s: s.start_ns)
        total = 0
        cursor = None
        for span in lane_spans:
            if cursor is None or span.start_ns >= cursor:
                total += span.duration_ns
                cursor = span.end_ns
            elif span.end_ns > cursor:
                total += span.end_ns - cursor
                cursor = span.end_ns
        coverage[lane] = total / 1e9
    return coverage


def check_self_time_sum(spans: "list[Span]", tolerance: float = 0.05) -> None:
    """Raise unless each lane's self times add up to the time the lane is covered."""
    covered = lane_coverage(spans)
    lanes: "dict[tuple[int, int], list[Span]]" = {}
    for span in spans:
        lanes.setdefault(span.lane, []).append(span)
    for lane, lane_spans in lanes.items():
        total = sum(self_times(lane_spans).values())
        if abs(total - covered[lane]) > tolerance * covered[lane]:
            raise AssertionError(
                f"lane {lane}: self times sum to {total:.4f}s but spans cover "
                f"{covered[lane]:.4f}s"
            )


def chrome_trace(spans: "list[Span]", origin_ns: int) -> dict:
    """Chrome/Perfetto JSON (``ph: X`` complete events, microseconds)."""
    events = []
    for span in sorted(spans, key=lambda s: s.start_ns):
        event = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start_ns - origin_ns) / 1e3,
            "dur": span.duration_ns / 1e3,
            "pid": span.pid,
            "tid": span.tid,
        }
        if span.count is not None:
            event["args"] = {"count": span.count}
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
