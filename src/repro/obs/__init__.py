"""repro.obs — the observability layer of the simulator.

Three instruments, threaded through every run (see ``docs/OBSERVABILITY.md``):

* **span tracing** — a finished DES engine derives one structured
  :class:`Span` (name, category, track, start/end, attributes) per scheduled,
  resource-bound task on demand (:meth:`repro.sim.engine.Engine.spans`); the
  engine's tasks are the only record, and the Perfetto exporter, the
  profiler and the oracle all read that view.
* a **hierarchical counter registry** — hardware models publish named
  counters (``component.metric``, e.g. ``gps_tlb.misses``) into a
  :class:`CounterRegistry`; per-GPU scopes (``gpu0.gps_tlb.misses``) roll up
  into system-wide totals, and the snapshot lands in
  ``SimulationResult.counters`` where it survives the disk cache round-trip.
* **exporters** — Chrome-trace / Perfetto JSON (:func:`chrome_trace`,
  loadable at https://ui.perfetto.dev), flat metrics JSON/CSV, a run
  manifest for provenance, and a top-N self-time profile
  (:func:`self_time_profile`).

The service's distributed traces (``distributed.py``) follow the same rule
as the engine's spans: :class:`DistSpan` rows are a view that
:meth:`repro.service.queue.JobQueue.trace` derives from the queue's job
records on demand, with W3C ``traceparent`` contexts and a Perfetto export
(:func:`distributed_chrome_trace`). No span store exists.
"""

from .distributed import (
    DistSpan,
    SequentialIds,
    TraceContext,
    derived_span_id,
    distributed_chrome_trace,
    dump_chrome_trace,
    parse_traceparent,
    set_id_generator,
)
from .export import (
    chrome_trace,
    metrics_csv,
    metrics_json,
    run_manifest,
    validate_chrome_trace,
    write_chrome_trace,
)
from .profile import ProfileRow, format_profile, self_time_profile
from .registry import Counter, CounterRegistry, Histogram
from .span import Span

__all__ = [
    "Counter",
    "CounterRegistry",
    "DistSpan",
    "Histogram",
    "ProfileRow",
    "SequentialIds",
    "Span",
    "TraceContext",
    "chrome_trace",
    "derived_span_id",
    "distributed_chrome_trace",
    "dump_chrome_trace",
    "format_profile",
    "metrics_csv",
    "metrics_json",
    "parse_traceparent",
    "run_manifest",
    "self_time_profile",
    "set_id_generator",
    "validate_chrome_trace",
    "write_chrome_trace",
]
