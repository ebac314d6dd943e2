"""repro.obs — the observability layer of the simulator.

Three instruments, threaded through every run (see ``docs/OBSERVABILITY.md``):

* **span tracing** — :class:`Span` is the one record of time: a name,
  category, track, start/end, attributes and the ``clock`` they are read
  on. A finished DES engine derives one sim-clock span per scheduled,
  resource-bound task on demand (:meth:`repro.sim.engine.Engine.spans`);
  the service derives service-clock spans from its job records
  (:meth:`repro.service.queue.JobQueue.trace`), with W3C ``traceparent``
  contexts (``distributed.py``) and the engine's spans re-parented under
  each run. Neither keeps a span store.
* a **hierarchical counter registry** — hardware models publish named
  counters (``component.metric``, e.g. ``gps_tlb.misses``) into a
  :class:`CounterRegistry`; per-GPU scopes (``gpu0.gps_tlb.misses``) roll up
  into system-wide totals, and the snapshot lands in
  ``SimulationResult.counters`` where it survives the disk cache round-trip.
* **exporters** — one Chrome-trace / Perfetto JSON writer for every span
  (:func:`chrome_trace`, loadable at https://ui.perfetto.dev; one process
  per clock), flat metrics JSON/CSV, a run manifest for provenance, and a
  top-N self-time profile (:func:`self_time_profile`).
"""

from .distributed import (
    SequentialIds,
    TraceContext,
    derived_span_id,
    parse_traceparent,
    set_id_generator,
)
from .export import (
    chrome_trace,
    dump_chrome_trace,
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
    "Histogram",
    "ProfileRow",
    "SequentialIds",
    "Span",
    "TraceContext",
    "chrome_trace",
    "derived_span_id",
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
