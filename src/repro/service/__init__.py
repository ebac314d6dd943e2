"""repro.service — simulation-as-a-service over the harness runner.

The ROADMAP's serving tier: instead of every consumer calling
``run_many()`` in-process, a single service process owns the queue and the
process pool, and clients submit jobs over a JSON/HTTP API
(``repro serve`` / ``repro submit``). The pieces (``docs/SERVICE.md`` has
the full reference):

* :class:`JobQueue` (``queue.py``) — bounded priority queue with
  backpressure and request coalescing on config fingerprints;
  priority-then-FIFO dispatch;
* :class:`BatchScheduler` (``scheduler.py``) — drains the queue on a
  size/age window into :func:`repro.harness.runner.run_many_settled`
  batches, with bounded per-job retry and graceful drain;
* :class:`SimulationService` (``server.py``) + :class:`ServiceClient`
  (``client.py``) — the asyncio HTTP frontend over one queue and one
  scheduler, and its blocking consumer;
* :class:`ServiceMetrics` (``metrics.py``) — queue depth, latency
  histograms, coalescing/retry/rejection counters, published through
  :class:`repro.obs.CounterRegistry` and served as JSON at
  ``GET /metrics``;
* observability (``timeseries.py`` / ``slo.py`` + the queue's tracer) —
  ring-buffered metric time-series with server-side bucketing
  (``GET /metrics/series``), each job's lifecycle as distributed trace
  spans (``GET /traces/{id}``), and declarative SLOs with burn-rate
  evaluation on ``/healthz`` (see ``docs/OBSERVABILITY.md``).

Everything is stdlib-only (asyncio + http.client); simulations themselves
run through the existing cached, analyzed, process-pooled harness runner.
"""

from .client import ClientError, JobFailed, ServiceClient, service_url
from .metrics import LATENCY_BUCKETS_S, ServiceMetrics
from .queue import Job, JobQueue, JobState, QueueFull, ServiceClosed
from .scheduler import BatchScheduler
from .server import ServiceSettings, SimulationService, parse_job_payload, serve
from .slo import DEFAULT_SLOS, SLO, evaluate_slo, evaluate_slos, slos_from_env
from .timeseries import DEFAULT_SERIES_SAMPLES, SeriesStore, percentile

__all__ = [
    "BatchScheduler",
    "ClientError",
    "DEFAULT_SERIES_SAMPLES",
    "DEFAULT_SLOS",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobState",
    "LATENCY_BUCKETS_S",
    "QueueFull",
    "SLO",
    "SeriesStore",
    "ServiceClosed",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceSettings",
    "SimulationService",
    "evaluate_slo",
    "evaluate_slos",
    "parse_job_payload",
    "percentile",
    "serve",
    "service_url",
    "slos_from_env",
]
