"""The service's priority job queue: bounded, coalescing, loop-confined.

One :class:`JobQueue` instance lives inside the server's asyncio event loop
and is only ever touched from that loop (HTTP handlers and the scheduler
coroutine), so it needs no locks. Three properties drive its design:

* **bounded depth + backpressure** — at most ``max_depth`` distinct
  simulations may be queued; further submissions raise :class:`QueueFull`,
  which the HTTP layer maps to ``429 Too Many Requests``. Coalesced and
  cache-hit submissions never consume a slot.
* **request coalescing** — simulations are deterministic and keyed by the
  canonical config fingerprint (:meth:`repro.harness.runner.SimJob.key`),
  so a submission whose key matches an in-flight job (queued *or* running)
  attaches to that job's future instead of re-simulating. Every submission
  still gets its own job id and latency accounting; only the simulation is
  shared.
* **cached-result short-circuit** — a submission whose key is already in
  the runner's memo cache completes immediately without touching the queue.

Priorities are integers, higher first; within a priority level groups
dispatch FIFO. The heap orders groups by ``(-priority, seq)``, where
``seq`` is stamped once when a group is first queued — a retried group
re-enters at its original position, ahead of work submitted after it.

Beyond queueing, each job's lifecycle is recorded as **distributed trace
spans** (see ``docs/OBSERVABILITY.md``): when the queue owns a
:class:`~repro.obs.distributed.TraceStore` (``tracer``), each submission
opens a ``request`` span under the client's ``traceparent`` (or a
server-minted root), a ``queue.wait`` span until dispatch, one shared
``execute`` span per group on the *primary* submitter's trace (coalesced
submitters record a ``coalesced`` span *linking* to it), and a ``run``
span per dispatch attempt under which the worker's engine spans are
re-parented.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from enum import Enum

from ..errors import ServiceError
from ..harness.runner import SimJob
from ..harness.runner import memo
from ..obs.distributed import DistSpan, TraceContext, TraceStore, mint_span_id, mint_trace_id
from ..system.results import SimulationResult
from .metrics import ServiceMetrics


class QueueFull(ServiceError):
    """The bounded queue is at capacity; the caller should back off."""


class ServiceClosed(ServiceError):
    """The service is draining for shutdown and accepts no new work."""


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One client submission (coalesced submissions are distinct ``Job``s).

    Jobs sharing a fingerprint form a *group*: they share the asyncio
    future, the simulation, and state transitions, but keep their own id,
    submission timestamp, and latency accounting.
    """

    id: str
    sim: SimJob
    key: str
    priority: int = 0
    client: str = ""
    state: JobState = JobState.QUEUED
    coalesced: bool = False
    cache_hit: bool = False
    attempts: int = 0
    submitted_at: float = field(default_factory=time.time)
    queued_mono: float = field(default_factory=time.monotonic)
    started_mono: "float | None" = None
    finished_mono: "float | None" = None
    error: "str | None" = None
    future: "asyncio.Future | None" = None
    trace_id: "str | None" = None
    client_span_id: "str | None" = None
    batch: "dict | None" = None
    request_span: "DistSpan | None" = field(default=None, repr=False)
    queue_span: "DistSpan | None" = field(default=None, repr=False)
    exec_span_id: "str | None" = field(default=None, repr=False)  # primary only
    exec_span: "DistSpan | None" = field(default=None, repr=False)  # primary only
    run_span: "DistSpan | None" = field(default=None, repr=False)  # primary only
    seq: int = field(default=0, repr=False)  # dispatch-order stamp (primary only)

    @property
    def result(self) -> "SimulationResult | None":
        """The simulation result once the job is DONE, else ``None``."""
        if self.future is not None and self.future.done() and not self.future.exception():
            return self.future.result()
        return None

    @property
    def wait_s(self) -> "float | None":
        """Queue wait: submission to dispatch (None until dispatched)."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.queued_mono

    @property
    def run_s(self) -> "float | None":
        """Execution time: dispatch to completion (None until finished)."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def as_dict(self) -> dict:
        """Status payload for ``GET /jobs/{id}`` (no result body)."""
        payload = {
            "id": self.id,
            "key": self.key,
            "state": self.state.value,
            "priority": self.priority,
            "client": self.client,
            "coalesced": self.coalesced,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "wait_s": self.wait_s,
            "run_s": self.run_s,
            "trace_id": self.trace_id,
            "job": self.sim.meta(),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobQueue:
    """Priority queue of job *groups*, keyed by config fingerprint."""

    def __init__(
        self,
        metrics: ServiceMetrics,
        max_depth: int = 256,
        tracer: "TraceStore | None" = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("queue depth must be at least 1")
        self.metrics = metrics
        self.max_depth = max_depth
        self.tracer = tracer
        self._jobs: "dict[str, Job]" = {}  # every job ever submitted, by id
        self._groups: "dict[str, list[Job]]" = {}  # fingerprint -> active group
        self._heap: "list[tuple[int, int, str]]" = []  # (-priority, seq, key)
        self._queued: "set[str]" = set()  # keys currently in the heap
        self._running: "set[str]" = set()  # keys dispatched to the runner
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._nonempty = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Distinct simulations waiting for dispatch."""
        return len(self._queued)

    @property
    def inflight(self) -> int:
        """Distinct simulations queued or running."""
        return len(self._groups)

    @property
    def closed(self) -> bool:
        """Whether the queue has stopped accepting submissions."""
        return self._closed

    def get(self, job_id: str) -> "Job | None":
        """Look one job up by id (any state), or ``None``."""
        return self._jobs.get(job_id)

    def jobs(self) -> "list[Job]":
        """Every job ever submitted, in submission order."""
        return list(self._jobs.values())

    def _gauges(self) -> None:
        self.metrics.set_queue_gauges(self.depth, self.inflight)
        if self._groups:
            self._idle.clear()
        else:
            self._idle.set()

    # -- submission ----------------------------------------------------------

    def _open_request(self, job: Job, trace: "TraceContext | None") -> None:
        """Assign the job's trace identity and open its ``request`` span.

        With a ``traceparent`` the request joins the client's trace as a
        child of the client's root span; without one the server mints a
        fresh root trace so the journey is traceable either way.
        """
        if self.tracer is None:
            return
        if trace is not None:
            job.trace_id = trace.trace_id
            job.client_span_id = trace.span_id
        else:
            job.trace_id = mint_trace_id()
        job.request_span = self.tracer.start_span(
            job.trace_id,
            "request",
            job.client_span_id,
            kind="server",
            track="server",
            attrs={"job_id": job.id, "fingerprint": job.key[:16]},
        )

    def submit(
        self,
        sim: SimJob,
        priority: int = 0,
        trace: "TraceContext | None" = None,
        client: str = "",
    ) -> Job:
        """Submit one simulation; returns the (possibly coalesced) job.

        ``trace`` is the client's parsed ``traceparent`` context, if any;
        ``client`` is a free-form label echoed in the job status. Raises
        :class:`ServiceClosed` when draining and :class:`QueueFull` when
        the submission needs a queue slot and none is free.
        """
        if self._closed:
            raise ServiceClosed("service is draining; not accepting new jobs")
        self.metrics.job_submitted()
        key = sim.key()
        job_id = f"job-{next(self._ids):06d}"

        group = self._groups.get(key)
        if group is not None:
            primary = group[0]
            job = Job(
                id=job_id,
                sim=sim,
                key=key,
                priority=priority,
                client=client,
                state=primary.state,
                coalesced=True,
                attempts=primary.attempts,
                started_mono=primary.started_mono,
                future=primary.future,
            )
            group.append(job)
            self._jobs[job_id] = job
            self.metrics.job_coalesced()
            self._open_request(job, trace)
            if job.request_span is not None and primary.exec_span_id is not None:
                # The shared execution lives on the primary's trace; this
                # submitter's own trace records the wait with a link to it.
                job.queue_span = self.tracer.start_span(  # type: ignore[union-attr]
                    job.trace_id,  # type: ignore[arg-type]
                    "coalesced",
                    job.request_span.span_id,
                    track="job",
                    attrs={"primary_job_id": primary.id},
                    links=[{"trace_id": primary.trace_id, "span_id": primary.exec_span_id}],
                )
            return job

        cached = memo.lookup(key)
        if cached is not None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(cached)
            job = Job(
                id=job_id,
                sim=sim,
                key=key,
                priority=priority,
                client=client,
                state=JobState.DONE,
                cache_hit=True,
                future=future,
            )
            job.started_mono = job.finished_mono = job.queued_mono
            self._jobs[job_id] = job
            self.metrics.job_cache_hit()
            self.metrics.job_completed(0.0, 0.0)
            self._open_request(job, trace)
            if job.request_span is not None:
                self.tracer.add_span(  # type: ignore[union-attr]
                    job.trace_id,  # type: ignore[arg-type]
                    "cache.hit",
                    parent_id=job.request_span.span_id,
                    track="job",
                )
                self.tracer.end_span(job.request_span)  # type: ignore[union-attr]
            return job

        if self.depth >= self.max_depth:
            self.metrics.job_rejected()
            raise QueueFull(
                f"queue is full ({self.max_depth} jobs); retry after the backlog drains"
            )

        job = Job(
            id=job_id,
            sim=sim,
            key=key,
            priority=priority,
            client=client,
            future=asyncio.get_running_loop().create_future(),
            seq=next(self._seq),
        )
        self._jobs[job_id] = job
        self._groups[key] = [job]
        self._push(job)
        self.metrics.job_accepted()
        self._open_request(job, trace)
        if job.request_span is not None:
            # The execution span's id is minted now — before the span even
            # starts — so a coalescing submission arriving while this group
            # is still queued can already link to it. The span itself opens
            # at :meth:`mark_running`.
            job.exec_span_id = mint_span_id()
            job.queue_span = self.tracer.start_span(  # type: ignore[union-attr]
                job.trace_id,  # type: ignore[arg-type]
                "queue.wait",
                job.request_span.span_id,
                track="job",
                attrs={"priority": priority},
            )
        self._gauges()
        return job

    def _push(self, primary: Job) -> None:
        heapq.heappush(self._heap, (-primary.priority, primary.seq, primary.key))
        self._queued.add(primary.key)
        self._nonempty.set()

    # -- scheduler interface -------------------------------------------------

    async def wait_nonempty(self) -> None:
        """Block until at least one group is queued."""
        await self._nonempty.wait()

    async def wait_idle(self) -> None:
        """Block until no group is queued or running (drain barrier)."""
        await self._idle.wait()

    def pop_ready(self, limit: int) -> "list[Job]":
        """Dequeue up to ``limit`` primary jobs, highest priority first."""
        batch: "list[Job]" = []
        while self._heap and len(batch) < limit:
            _, _, key = heapq.heappop(self._heap)
            if key not in self._queued:
                continue
            self._queued.discard(key)
            batch.append(self._groups[key][0])
        if not self._heap:
            self._nonempty.clear()
        self._gauges()
        return batch

    def note_scheduled(self, key: str, batch_seq: int, batch_size: int) -> None:
        """Record which scheduler batch picked this group up."""
        batch = {"batch_seq": batch_seq, "batch_size": batch_size}
        for job in self._groups[key]:
            job.batch = batch

    def mark_running(self, key: str) -> None:
        """Transition a group to RUNNING (dispatch time for latency)."""
        now = time.monotonic()
        self._running.add(key)
        group = self._groups[key]
        primary = group[0]
        for job in group:
            job.state = JobState.RUNNING
            if job.started_mono is None:
                job.started_mono = now
        if self.tracer is not None and primary.exec_span_id is not None:
            if primary.exec_span is None:
                # First dispatch: close the queue wait, open the shared
                # execution span under the pre-minted id.
                self.tracer.end_span(primary.queue_span)
                parent = (
                    primary.request_span.span_id if primary.request_span is not None else None
                )
                primary.exec_span = self.tracer.start_span(
                    primary.trace_id,  # type: ignore[arg-type]
                    "execute",
                    parent,
                    track="job",
                    span_id=primary.exec_span_id,
                    attrs={"group_size": len(group)},
                )
            else:
                primary.exec_span.attrs["group_size"] = len(group)
            attrs = {"attempt": primary.attempts + 1}
            attrs.update(primary.batch or {})
            primary.run_span = self.tracer.start_span(
                primary.trace_id,  # type: ignore[arg-type]
                "run",
                primary.exec_span_id,
                track="attempt",
                attrs=attrs,
            )
        self._gauges()

    def record_attempt(self, key: str) -> int:
        """Bump the group's attempt counter; returns attempts so far."""
        group = self._groups[key]
        attempts = group[0].attempts + 1
        primary = group[0]
        if self.tracer is not None and primary.run_span is not None:
            primary.run_span.attrs["failed"] = True
            self.tracer.end_span(primary.run_span)
            primary.run_span = None
        for job in group:
            job.attempts = attempts
        return attempts

    def attach_spans(self, key: str, spans: "list[dict] | None") -> None:
        """Re-parent one run's engine spans under the group's ``run`` span.

        Called by the traced scheduler after a successful attempt, before
        :meth:`finish`. ``spans`` is the worker's ``Span.to_dict`` list
        (``None`` when the result came from a cache — nothing to attach).
        Closes the attempt's ``run`` span either way.
        """
        primary = self._groups[key][0]
        if self.tracer is None or primary.run_span is None:
            return
        self.tracer.end_span(primary.run_span)
        if spans:
            count = self.tracer.attach_engine_tree(
                primary.trace_id,  # type: ignore[arg-type]
                primary.run_span.span_id,
                spans,
                anchor=primary.run_span.start,
            )
            self.metrics.spans_attached(count)
        primary.run_span = None

    def requeue(self, key: str) -> None:
        """Put a failed-attempt group back in the queue for retry."""
        self._running.discard(key)
        group = self._groups[key]
        for job in group:
            job.state = JobState.QUEUED
        # Retries keep their original seq: a failed attempt re-enters ahead
        # of work submitted after it.
        self._push(group[0])
        self.metrics.job_retried()
        self._gauges()

    def finish(
        self,
        key: str,
        result: "SimulationResult | None" = None,
        error: "Exception | None" = None,
    ) -> None:
        """Resolve a group: every job in it completes (or fails) together."""
        self._running.discard(key)
        group = self._groups.pop(key)
        now = time.monotonic()
        primary = group[0]
        future = primary.future
        if self.tracer is not None:
            if primary.run_span is not None:  # failed attempt never re-dispatched
                primary.run_span.attrs["failed"] = True
                self.tracer.end_span(primary.run_span)
                primary.run_span = None
            self.tracer.end_span(primary.exec_span)
        for job in group:
            job.finished_mono = now
            if job.started_mono is None:  # failed before ever dispatching
                job.started_mono = now
            if error is None:
                job.state = JobState.DONE
                self.metrics.job_completed(job.wait_s or 0.0, job.run_s or 0.0)
            else:
                job.state = JobState.FAILED
                job.error = f"{type(error).__name__}: {error}"
                self.metrics.job_failed()
            if self.tracer is not None:
                if job.queue_span is not None:
                    job.queue_span.attrs.setdefault("outcome", job.state.value)
                    self.tracer.end_span(job.queue_span)
                if job.request_span is not None:
                    job.request_span.attrs["outcome"] = job.state.value
                    self.tracer.end_span(job.request_span)
        assert future is not None
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)
            # The HTTP layer reads job.error; nobody may ever await the
            # future, so pre-retrieve the exception to silence asyncio's
            # "exception was never retrieved" warning.
            future.exception()
        self._gauges()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting submissions (in-flight groups still complete)."""
        self._closed = True

    def abort_queued(self) -> int:
        """Fail every still-queued group (non-drain shutdown); returns count."""
        aborted = 0
        for key in list(self._queued):
            self._queued.discard(key)
            self.finish(key, error=ServiceClosed("service shut down before the job ran"))
            aborted += 1
        self._heap.clear()
        self._nonempty.clear()
        self._gauges()
        return aborted
