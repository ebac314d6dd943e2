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

Each job's record is also its trace (see ``docs/OBSERVABILITY.md``): the
queue stamps every transition once with its ``clock`` (submission, each
dispatch attempt's start and end, finish), and :meth:`JobQueue.trace`
derives the distributed trace spans from those records on demand — a
``request`` span under the client's ``traceparent`` (or a server-minted
root), a ``queue.wait`` span until dispatch, one shared ``execute`` span per
group on the *primary* submitter's trace (coalesced submitters get a
``coalesced`` span *linking* to it), and a ``run`` span per dispatch attempt
under which the worker's engine spans are re-parented. Only the
:data:`JOB_RECORDS` most recently finished jobs keep their records, so
memory stays bounded however long the service runs.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

from ..errors import ServiceError
from ..harness.runner import SimJob
from ..harness.runner import memo
from ..obs.distributed import TraceContext, derived_span_id, mint_trace_id
from ..obs.span import CATEGORY_INTERNAL, CATEGORY_SERVER, CLOCK_SERVICE, Span
from ..system.results import SimulationResult
from .metrics import ServiceMetrics

#: Finished groups whose engine spans stay in memory. An older
#: group's trace is still served, without its engine spans.
ENGINE_TRACE_GROUPS = 256

#: Finished jobs whose records stay in memory. An older job's id and
#: trace are forgotten; queued and running jobs are always kept.
JOB_RECORDS = 4096


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
class Attempt:
    """One dispatch of a group to the runner; ``end`` is ``None`` while it runs."""

    start: float
    end: "float | None" = None
    failed: bool = False


@dataclass(eq=False)
class Job:
    """One client submission (coalesced submissions are distinct ``Job``s).

    Jobs sharing a fingerprint form a *group* led by its first submitter,
    the *primary*: they share the asyncio future, the simulation, and state
    transitions, but keep their own id, submission timestamp, and latency
    accounting. The group's dispatch attempts, members and engine spans
    live on the primary; a coalesced job points at it.
    """

    id: str
    sim: SimJob
    key: str
    submitted_at: float
    trace_id: str
    client_span_id: "str | None" = None
    priority: int = 0
    client: str = ""
    state: JobState = JobState.QUEUED
    primary: "Job | None" = field(default=None, repr=False)  # coalesced jobs only
    cache_hit: bool = False
    finished_at: "float | None" = None
    error: "str | None" = None
    future: "asyncio.Future | None" = None
    dispatches: "list[Attempt]" = field(default_factory=list, repr=False)  # primary only
    members: "list[Job]" = field(default_factory=list, repr=False)  # primary only
    engine: "list[Span] | None" = field(default=None, repr=False)  # primary only
    seq: int = field(default=0, repr=False)  # dispatch-order stamp (primary only)

    @property
    def coalesced(self) -> bool:
        """Whether this submission joined another job's simulation."""
        return self.primary is not None

    @property
    def attempts(self) -> int:
        """Failed dispatch attempts of the group so far."""
        return sum(attempt.failed for attempt in (self.primary or self).dispatches)

    @property
    def result(self) -> "SimulationResult | None":
        """The simulation result once the job is DONE, else ``None``."""
        if self.future is not None and self.future.done() and not self.future.exception():
            return self.future.result()
        return None

    @property
    def started_at(self) -> "float | None":
        """When this job stopped waiting.

        That is the start of the first attempt still open at its submission
        (or its submission, if it joined a running attempt), or its finish
        if no such attempt ever ran.
        """
        for attempt in (self.primary or self).dispatches:
            if attempt.end is None or attempt.end >= self.submitted_at:
                return max(attempt.start, self.submitted_at)
        return self.finished_at

    @property
    def wait_s(self) -> "float | None":
        """Queue wait: submission to dispatch (None until dispatched)."""
        started = self.started_at
        return None if started is None else started - self.submitted_at

    @property
    def run_s(self) -> "float | None":
        """Execution time: dispatch to completion (None until finished)."""
        started = self.started_at
        if started is None or self.finished_at is None:
            return None
        return self.finished_at - started

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

    # -- the derived trace ---------------------------------------------------

    def span_id(self, role: str, attempt: int = 0) -> str:
        """This job's span id for one role: a pure function of the record."""
        return derived_span_id(f"{self.trace_id}/{self.id}/{role}", attempt)

    def _span(
        self,
        name: str,
        parent_id: "str | None",
        start: float,
        end: "float | None",
        attempt: int = 0,
        *,
        category: str = CATEGORY_INTERNAL,
        track: str = "job",
        attrs: "dict | None" = None,
        links: tuple = (),
    ) -> Span:
        """One service-clock span of this job's trace; ``name`` is its role."""
        return Span(
            name=name,
            category=category,
            track=track,
            start=start,
            end=end,
            attrs=attrs or {},
            clock=CLOCK_SERVICE,
            trace_id=self.trace_id,
            span_id=self.span_id(name, attempt),
            parent_id=parent_id,
            links=links,
        )

    def spans(self) -> "list[Span]":
        """This job's own trace spans, derived from its record."""
        request_id = self.span_id("request")
        # Cache hits complete at submission and never record an outcome.
        done = self.finished_at is not None and not self.cache_hit
        outcome = {"outcome": self.state.value} if done else {}
        spans = [
            self._span(
                "request",
                self.client_span_id,
                self.submitted_at,
                self.finished_at,
                category=CATEGORY_SERVER,
                track="server",
                attrs={"job_id": self.id, "fingerprint": self.key[:16], **outcome},
            )
        ]
        if self.cache_hit:
            spans.append(self._span("cache.hit", request_id, self.submitted_at, self.submitted_at))
        elif self.primary is not None:
            # The shared execution lives on the primary's trace; this
            # submitter's own trace records the wait with a link to it.
            link = {"trace_id": self.primary.trace_id, "span_id": self.primary.span_id("execute")}
            spans.append(
                self._span(
                    "coalesced",
                    request_id,
                    self.submitted_at,
                    self.finished_at,
                    attrs={"primary_job_id": self.primary.id, **outcome},
                    links=(link,),
                )
            )
        else:
            spans.append(
                self._span(
                    "queue.wait",
                    request_id,
                    self.submitted_at,
                    self.started_at,
                    attrs={"priority": self.priority, **outcome},
                )
            )
            spans += self.execution_spans()
        return spans

    def execution_spans(self) -> "list[Span]":
        """A primary's execution subtree: ``execute``, its ``run``s, engine spans.

        The engine spans hang under the last attempt's ``run`` span with
        ids ``derived_span_id(run_id, index)``, their simulated times
        anchored at that ``run`` span's start (the originals stay in
        ``sim_start``/``sim_end``).
        """
        if not self.dispatches:
            return []
        execute_id = self.span_id("execute")
        last = self.dispatches[-1]
        group_size = sum(1 for job in self.members if job.submitted_at <= last.start)
        spans = [
            self._span(
                "execute",
                self.span_id("request"),
                self.dispatches[0].start,
                self.finished_at,
                attrs={"group_size": group_size},
            )
        ]
        for number, attempt in enumerate(self.dispatches, 1):
            attrs: dict = {"attempt": number}
            if attempt.failed:
                attrs["failed"] = True
            spans.append(
                self._span("run", execute_id, attempt.start, attempt.end, number,
                           track="attempt", attrs=attrs)
            )
        run_id = self.span_id("run", len(self.dispatches))
        for index, span in enumerate(self.engine or ()):
            assert span.end is not None  # the engine derives closed spans only
            spans.append(
                replace(
                    span,
                    start=last.start + span.start,
                    end=last.start + span.end,
                    attrs={**span.attrs, "sim_start": span.start, "sim_end": span.end},
                    trace_id=self.trace_id,
                    span_id=derived_span_id(run_id, index),
                    parent_id=run_id,
                )
            )
        return spans


class JobQueue:
    """Priority queue of job *groups*, keyed by config fingerprint.

    ``clock`` stamps every transition of every job (default ``time.time``);
    tests pass a fake one to make the derived traces deterministic.
    """

    def __init__(self, metrics: ServiceMetrics, max_depth: int = 256, clock=time.time) -> None:
        if max_depth < 1:
            raise ValueError("queue depth must be at least 1")
        self.metrics = metrics
        self.max_depth = max_depth
        self._clock = clock
        self._jobs: "dict[str, Job]" = {}  # every retained job, by id
        self._traces: "dict[str, list[Job]]" = {}  # trace id -> its retained jobs
        self._finished: "deque[Job]" = deque()  # retained finished jobs, oldest first
        self._groups: "dict[str, Job]" = {}  # fingerprint -> active group's primary
        self._engine_kept: "deque[Job]" = deque()  # primaries holding engine spans
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
        """Every retained job, in submission order."""
        return list(self._jobs.values())

    def trace(self, trace_id: str) -> "list[Span]":
        """One trace's spans, derived from its jobs' records on demand.

        This is what ``GET /traces/{id}`` returns: every retained job
        submitted on the trace, plus — one hop along a coalesced job's
        link — the shared execution subtree on its primary's trace, so
        every client sees client submit → ... → engine spans under one
        download. Empty when the trace id is unknown or its jobs were
        forgotten.
        """
        jobs = self._traces.get(trace_id, [])
        spans = [span for job in jobs for span in job.spans()]
        linked = dict.fromkeys(
            job.primary for job in jobs if job.primary is not None and job.primary not in jobs
        )
        for primary in linked:
            spans += primary.execution_spans()  # type: ignore[union-attr]
        return spans

    def _gauges(self) -> None:
        self.metrics.set_queue_gauges(self.depth, self.inflight)
        if self._groups:
            self._idle.clear()
        else:
            self._idle.set()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        sim: SimJob,
        priority: int = 0,
        trace: "TraceContext | None" = None,
        client: str = "",
    ) -> Job:
        """Submit one simulation; returns the (possibly coalesced) job.

        ``trace`` is the client's parsed ``traceparent`` context, if any:
        the job joins the client's trace as a child of the client's root
        span; without one the server mints a fresh root trace. ``client``
        is a free-form label echoed in the job status. Raises
        :class:`ServiceClosed` when draining and :class:`QueueFull` when
        the submission needs a queue slot and none is free.
        """
        if self._closed:
            raise ServiceClosed("service is draining; not accepting new jobs")
        self.metrics.job_submitted()
        key = sim.key()
        job = Job(
            id=f"job-{next(self._ids):06d}",
            sim=sim,
            key=key,
            submitted_at=self._clock(),
            trace_id=trace.trace_id if trace is not None else mint_trace_id(),
            client_span_id=trace.span_id if trace is not None else None,
            priority=priority,
            client=client,
        )

        primary = self._groups.get(key)
        if primary is not None:
            job.primary = primary
            job.state = primary.state
            job.future = primary.future
            primary.members.append(job)
            self._record(job)
            self.metrics.job_coalesced()
            return job

        cached = memo.lookup(key)
        if cached is not None:
            job.future = asyncio.get_running_loop().create_future()
            job.future.set_result(cached)
            job.state = JobState.DONE
            job.cache_hit = True
            job.finished_at = job.submitted_at
            self._record(job)
            self._retire(job)
            self.metrics.job_cache_hit()
            self.metrics.job_completed(0.0, 0.0)
            return job

        if self.depth >= self.max_depth:
            self.metrics.job_rejected()
            raise QueueFull(
                f"queue is full ({self.max_depth} jobs); retry after the backlog drains"
            )

        job.future = asyncio.get_running_loop().create_future()
        job.seq = next(self._seq)
        job.members.append(job)
        self._record(job)
        self._groups[key] = job
        self._push(job)
        self.metrics.job_accepted()
        self._gauges()
        return job

    def _record(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._traces.setdefault(job.trace_id, []).append(job)

    def _retire(self, job: Job) -> None:
        """Keep a finished job's record; forget the oldest past :data:`JOB_RECORDS`."""
        self._finished.append(job)
        while len(self._finished) > JOB_RECORDS:
            old = self._finished.popleft()
            del self._jobs[old.id]
            trace = self._traces[old.trace_id]
            trace.remove(old)
            if not trace:
                del self._traces[old.trace_id]

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
        ready: "list[Job]" = []
        while self._heap and len(ready) < limit:
            _, _, key = heapq.heappop(self._heap)
            if key not in self._queued:
                continue
            self._queued.discard(key)
            ready.append(self._groups[key])
        if not self._heap:
            self._nonempty.clear()
        self._gauges()
        return ready

    def mark_running(self, key: str) -> None:
        """Transition a group to RUNNING: one more dispatch attempt starts."""
        self._running.add(key)
        primary = self._groups[key]
        primary.dispatches.append(Attempt(self._clock()))
        for job in primary.members:
            job.state = JobState.RUNNING
        self._gauges()

    def record_attempt(self, key: str) -> int:
        """Close the running attempt as failed; returns failed attempts so far."""
        primary = self._groups[key]
        attempt = primary.dispatches[-1]
        attempt.end = self._clock()
        attempt.failed = True
        return primary.attempts

    def requeue(self, key: str) -> None:
        """Put a failed-attempt group back in the queue for retry."""
        self._running.discard(key)
        primary = self._groups[key]
        for job in primary.members:
            job.state = JobState.QUEUED
        # Retries keep their original seq: a failed attempt re-enters ahead
        # of work submitted after it.
        self._push(primary)
        self.metrics.job_retried()
        self._gauges()

    def finish(
        self,
        key: str,
        result: "SimulationResult | None" = None,
        error: "Exception | None" = None,
        spans: "list[Span] | None" = None,
    ) -> None:
        """Resolve a group: every job in it completes (or fails) together.

        ``spans`` is the successful run's engine span list (the worker's
        :meth:`Engine.spans`; ``None`` when the result came from a cache).
        The primary keeps it as-is for :meth:`trace`, for the
        :data:`ENGINE_TRACE_GROUPS` most recently finished groups.
        """
        self._running.discard(key)
        primary = self._groups.pop(key)
        now = self._clock()
        if primary.dispatches and primary.dispatches[-1].end is None:
            primary.dispatches[-1].end = now
            primary.dispatches[-1].failed = error is not None
        if spans and error is None:
            primary.engine = spans
            self._engine_kept.append(primary)
            if len(self._engine_kept) > ENGINE_TRACE_GROUPS:
                self._engine_kept.popleft().engine = None
            self.metrics.spans_attached(len(spans))
        for job in primary.members:
            job.finished_at = now
            self._retire(job)
            if error is None:
                job.state = JobState.DONE
                self.metrics.job_completed(job.wait_s or 0.0, job.run_s or 0.0)
            else:
                job.state = JobState.FAILED
                job.error = f"{type(error).__name__}: {error}"
                self.metrics.job_failed()
        future = primary.future
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
