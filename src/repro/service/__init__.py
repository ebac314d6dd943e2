"""repro.service — simulation-as-a-service over the harness runner.

The ROADMAP's serving tier: instead of every consumer calling
``run_many()`` in-process, a single service process owns the queue and the
process pool, and clients submit jobs over a JSON/HTTP API
(``repro serve`` / ``repro submit``). The pieces (``docs/SERVICE.md`` has
the full reference):

* :class:`JobQueue` (``queue.py``) — bounded priority queue with
  backpressure and request coalescing on config fingerprints;
  priority-then-FIFO dispatch;
* :class:`BatchScheduler` (``scheduler.py``) — drains the queue, without
  waiting, into :func:`repro.harness.runner.run_many_settled` batches of
  at most ``batch_size``, with bounded per-job retry and graceful drain;
* :class:`SimulationService` (``server.py``) + :class:`ServiceClient`
  (``client.py``) — the asyncio HTTP frontend over one queue and one
  scheduler, and its blocking consumer;
* :class:`ServiceMetrics` (``metrics.py``) — queue depth, latency
  histograms, coalescing/retry/rejection counters, published through
  :class:`repro.obs.CounterRegistry` and served as JSON at
  ``GET /metrics``;
* each job's record in the queue is also its trace: ``JobQueue.trace``
  derives the distributed trace spans from the records on demand, served
  at ``GET /traces/{id}`` (see ``docs/OBSERVABILITY.md``).

Everything is stdlib-only (asyncio + http.client); simulations themselves
run through the existing cached, analyzed, process-pooled harness runner.
"""

from .client import ClientError, JobFailed, ServiceClient, service_url
from .metrics import LATENCY_BUCKETS_S, ServiceMetrics
from .queue import Job, JobQueue, JobState, QueueFull, ServiceClosed
from .scheduler import BatchScheduler
from .server import ServiceSettings, SimulationService, parse_job_payload, serve

__all__ = [
    "BatchScheduler",
    "ClientError",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobState",
    "LATENCY_BUCKETS_S",
    "QueueFull",
    "ServiceClosed",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceSettings",
    "SimulationService",
    "parse_job_payload",
    "serve",
    "service_url",
]
