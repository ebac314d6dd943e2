"""The simulation service: a stdlib-only JSON-over-HTTP asyncio server.

One process hosts the whole serving stack — HTTP frontend, one priority
queue and one scheduler — in a single event loop; simulations run off-loop
on one warm worker pool that the service keeps for its whole life (forked
on the first job, joined at shutdown), one job group per worker at once.
The API surface:

==========================  ==================================================
``POST /jobs``              submit a simulation; ``202`` + job status payload
                            (``200`` when answered from cache), ``400`` on a
                            bad request, ``429`` on backpressure (with
                            ``Retry-After``), ``503`` while draining; honours
                            W3C ``traceparent`` and ``x-repro-client``
                            request headers
``GET /jobs/{id}``          job status (state, latencies, attempts, coalesced,
                            client label, trace id)
``GET /results/{id}``       ``200`` + full result once done, ``202`` while
                            pending, ``500`` once failed; ``?wait=<s>``
                            first awaits the job for up to ``s`` seconds
                            (capped at ``RESULT_WAIT_CAP_S``), ``400`` when
                            ``s`` is not a finite number >= 0
``GET /healthz``            liveness + queue gauges
``GET /metrics``            the service's ``obs.CounterRegistry`` snapshot
                            as JSON
``GET /traces/{id}``        one distributed trace, derived from its jobs'
                            records; ``?format=perfetto`` serves
                            Chrome-trace JSON
``POST /shutdown``          graceful drain (``{"drain": false}`` aborts the
                            queue instead)
==========================  ==================================================

Submission body: ``{"workload": "jacobi", "paradigm": "gps", "gpus": 4,
"link": "pcie6", "scale": 0.5, "iterations": 8, "priority": 0}`` — every
field but ``workload`` optional. The four settings are
:class:`ServiceSettings`; ``repro serve`` has a flag for each, and the bind
address may also come from ``REPRO_SERVICE_HOST`` and ``REPRO_SERVICE_PORT``
(:meth:`ServiceSettings.from_env`).

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection: close``,
JSON bodies only): the service fronts a trusted local/CI network, and
keeping it stdlib-only is a hard constraint of this repo.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
from dataclasses import dataclass, replace
from urllib.parse import parse_qs

from ..config import LINKS_BY_NAME
from ..harness.runner import SimJob
from ..harness.runner.parallel import WorkerPool, env_int, pool_width
from ..obs.distributed import parse_traceparent
from ..obs.export import chrome_trace
from ..obs.span import CATEGORY_CLIENT, CLOCK_SERVICE, CLOCK_SIM, Span
from ..paradigms.registry import PARADIGMS
from ..workloads.registry import (
    EXTRA_WORKLOADS,
    is_known_workload,
    resolve_workload_name,
    workload_names,
)
from .metrics import ServiceMetrics
from .queue import JobQueue, JobState, QueueFull, ServiceClosed
from .scheduler import Scheduler

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body the server will read, in bytes.
MAX_BODY_BYTES = 1 << 20

#: Longest a ``GET /results/{id}?wait=`` request holds its connection, in
#: seconds; a longer ``wait`` is clipped to it.
RESULT_WAIT_CAP_S = 30.0


def _qlast(query: "dict[str, list[str]]", name: str) -> "str | None":
    """Last value of a (multi-valued) query parameter, or ``None``."""
    values = query.get(name)
    return values[-1] if values else None


@dataclass(frozen=True)
class ServiceSettings:
    """The settings of one service instance (see ``docs/SERVICE.md``).

    ``max_workers`` is the pool width, and so the number of job groups in
    flight; ``None`` takes :func:`pool_width`'s default.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    queue_depth: int = 256
    max_workers: "int | None" = None

    @classmethod
    def from_env(cls, **overrides) -> "ServiceSettings":
        """The bind address from the environment, then ``overrides``.

        ``REPRO_SERVICE_HOST`` and ``REPRO_SERVICE_PORT`` are the only
        variables read. Only overrides whose value is not ``None`` apply, so
        CLI flags can pass through unset options without clobbering the
        environment. A malformed port raises ``ValueError`` naming the
        variable.
        """
        values = {
            "host": os.environ.get("REPRO_SERVICE_HOST") or cls.host,
            "port": env_int("REPRO_SERVICE_PORT", cls.port),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def parse_job_payload(payload) -> "tuple[SimJob, int]":
    """Validate a ``POST /jobs`` body into ``(SimJob, priority)``.

    Raises ``ValueError`` with a client-presentable message on any problem;
    the HTTP layer maps that to ``400``.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    known = {"workload", "paradigm", "gpus", "link", "scale", "iterations", "priority"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(unknown)}")

    workload = resolve_workload_name(payload.get("workload", ""))
    if not is_known_workload(workload):
        valid = workload_names() + list(EXTRA_WORKLOADS) + ["fuzz/<seed>"]
        raise ValueError(f"unknown workload {payload.get('workload')!r}; one of {valid}")
    paradigm = payload.get("paradigm", "gps")
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; one of {sorted(PARADIGMS)}")
    link = payload.get("link", "pcie6")
    if link not in LINKS_BY_NAME:
        raise ValueError(f"unknown link {link!r}; one of {sorted(LINKS_BY_NAME)}")

    def _int(name: str, default: int, minimum: int) -> int:
        value = payload.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}")
        return value

    gpus = _int("gpus", 4, 1)
    iterations = _int("iterations", 8, 1)
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError("priority must be an integer")
    scale = payload.get("scale", 0.5)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        raise ValueError("scale must be a positive number")

    sim = SimJob(workload, paradigm, gpus, link, float(scale), iterations)
    return sim, priority


class SimulationService:
    """Job queue + scheduler + HTTP frontend on one event loop.

    ``pool`` is the service's one :class:`WorkerPool`, ``None`` when the
    pool width (``max_workers``, else ``REPRO_MAX_WORKERS``, else the CPU
    count) is 1: jobs then run one at a time in this process.
    """

    def __init__(
        self,
        settings: "ServiceSettings | None" = None,
        registry=None,
    ) -> None:
        self.settings = settings if settings is not None else ServiceSettings.from_env()
        self.metrics = ServiceMetrics(registry)
        self.queue = JobQueue(self.metrics, max_depth=self.settings.queue_depth)
        width = pool_width(self.settings.max_workers)
        self.pool = WorkerPool(width) if width > 1 else None
        self.scheduler = Scheduler(self.queue, pool=self.pool)
        self._server: "asyncio.Server | None" = None
        self._stopped: "asyncio.Event | None" = None
        self._answering: "set[asyncio.Task]" = set()  # read a request, not yet replied
        self.host = self.settings.host
        self.port = self.settings.port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Bind the socket and start the scheduler; returns ``(host, port)``.

        ``port=0`` binds an ephemeral port; the resolved one is stored on
        ``self.port``.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        self._stopped = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work, settle (or abort) the backlog, close up.

        The worker pool is joined before the listener stops, so no worker
        outlives the server.
        """
        if self._server is None:
            return
        self.queue.close()
        await self.scheduler.stop(drain=drain)
        if self.pool is not None:
            await asyncio.to_thread(self.pool.close)
        self._server.close()
        # Every job has settled, so a long-poll still pending has woken:
        # let its answer go out before the loop stops.
        await asyncio.gather(*self._answering, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        assert self._stopped is not None
        self._stopped.set()

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except _BadRequest as exc:
                writer.write(_render_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            task = asyncio.current_task()
            assert task is not None
            self._answering.add(task)
            try:
                method, path, query, headers, body = request
                response = await self._route(method, path, query, headers, body)
                # Handlers return (status, payload) or (status, payload, headers).
                status, payload = response[0], response[1]
                extra_headers = response[2] if len(response) > 2 else None
                writer.write(_render_response(status, payload, extra_headers))
                await writer.drain()
            finally:
                self._answering.discard(task)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, dict, dict, bytes] | None":
        request_line = await _readline(reader)
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(f"malformed request line {request_line[:80]!r}") from None
        headers: "dict[str, str]" = {}
        while True:
            line = await _readline(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        try:
            content_length = int(raw_length)
        except ValueError:
            raise _BadRequest(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if not 0 <= content_length <= MAX_BODY_BYTES:
            raise _BadRequest(
                f"Content-Length must be between 0 and {MAX_BODY_BYTES}, got {content_length}"
            )
        body = await reader.readexactly(content_length) if content_length else b""
        path, _, raw_query = target.partition("?")
        query = parse_qs(raw_query)
        return method.upper(), path, query, headers, body

    async def _route(
        self, method: str, path: str, query: dict, headers: dict, body: bytes
    ) -> "tuple[int, object] | tuple[int, object, dict]":
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "queued": self.queue.depth,
                "inflight": self.queue.inflight,
                "draining": self.queue.closed,
            }
        if path == "/metrics" and method == "GET":
            return 200, {"metrics": self.metrics.snapshot()}
        if path == "/jobs" and method == "POST":
            return self._submit(headers, body)
        if path.startswith("/jobs/") and method == "GET":
            return self._job_status(path[len("/jobs/"):])
        if path.startswith("/results/") and method == "GET":
            return await self._job_result(path[len("/results/"):], query)
        if path.startswith("/traces/") and method == "GET":
            return self._trace(path[len("/traces/"):], query)
        if path == "/shutdown" and method == "POST":
            return self._shutdown_request(body)
        if path in ("/jobs", "/shutdown") or path.startswith(
            ("/jobs/", "/results/", "/traces/")
        ):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such route: {method} {path}"}

    # -- route handlers ------------------------------------------------------

    def _submit(
        self, headers: dict, body: bytes
    ) -> "tuple[int, dict] | tuple[int, dict, dict]":
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            return 400, {"error": "request body is not valid JSON"}
        try:
            sim, priority = parse_job_payload(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        try:
            job = self.queue.submit(
                sim,
                priority,
                trace=parse_traceparent(headers.get("traceparent")),
                client=headers.get("x-repro-client", ""),
            )
        except QueueFull as exc:
            return 429, {"error": str(exc)}, {"Retry-After": "1"}
        except ServiceClosed as exc:
            return 503, {"error": str(exc)}
        return (200 if job.cache_hit else 202), job.as_dict()

    def _trace(self, trace_id: str, query: dict) -> "tuple[int, dict]":
        spans = self.queue.trace(trace_id)
        if not spans:
            return 404, {"error": f"unknown trace id {trace_id!r}"}
        if _qlast(query, "format") == "perfetto":
            return 200, perfetto_trace(trace_id, spans)
        spans.sort(key=lambda s: (s.start, s.span_id))
        return 200, {"trace_id": trace_id, "spans": [_trace_row(span) for span in spans]}

    def _job_status(self, job_id: str) -> "tuple[int, dict]":
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job id {job_id!r}"}
        return 200, job.as_dict()

    async def _job_result(self, job_id: str, query: dict) -> "tuple[int, dict]":
        raw_wait = _qlast(query, "wait")
        try:
            wait = 0.0 if raw_wait is None else float(raw_wait)
        except ValueError:
            wait = math.nan
        if not 0.0 <= wait < math.inf:
            return 400, {"error": f"wait must be a finite number >= 0, got {raw_wait!r}"}
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job id {job_id!r}"}
        assert job.future is not None
        if wait > 0 and not job.future.done():
            # Not wait_for: its timeout would cancel the future every
            # coalesced duplicate shares.
            await asyncio.wait({job.future}, timeout=min(wait, RESULT_WAIT_CAP_S))
        if job.state is JobState.FAILED:
            return 500, {"id": job.id, "state": job.state.value, "error": job.error}
        result = job.result
        if result is None:
            return 202, {"id": job.id, "state": job.state.value}
        return 200, {
            "id": job.id,
            "key": job.key,
            "state": job.state.value,
            "job": job.sim.meta(),
            "result": result.to_dict(),
        }

    def _shutdown_request(self, body: bytes) -> "tuple[int, dict]":
        try:
            payload = json.loads(body or b"{}")
        except ValueError:
            payload = {}
        drain = bool(payload.get("drain", True)) if isinstance(payload, dict) else True
        asyncio.get_running_loop().create_task(self.shutdown(drain=drain))
        return 202, {"status": "draining" if drain else "stopping"}


def _trace_row(span: Span) -> dict:
    """One ``GET /traces/{id}`` row.

    The row keys are a wire format: ``kind`` is the span's category, or
    ``engine`` for a sim-clock span, whose category moves into ``attrs``.
    """
    engine = span.clock == CLOCK_SIM
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "kind": "engine" if engine else span.category,
        "track": span.track,
        "attrs": {**span.attrs, "category": span.category} if engine else dict(span.attrs),
        "links": [dict(link) for link in span.links],
    }


def perfetto_trace(trace_id: str, spans: "list[Span]") -> dict:
    """Chrome-trace JSON of one trace closure (``?format=perfetto``).

    Two service steps run before :func:`repro.obs.chrome_trace`:

    * every parent id no span owns gets a synthesised ``client.submit``
      root covering its children — the client's root span lives
      client-side, and the server only ever sees its id in
      ``traceparent``;
    * service spans of another trace (a coalesced job's linked execution)
      move to lanes prefixed with that trace id, apart from this trace's.
    """
    known = {span.span_id for span in spans}
    orphans: "dict[tuple[str | None, str], list[Span]]" = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id not in known:
            orphans.setdefault((span.trace_id, span.parent_id), []).append(span)
    spans = spans + [
        Span(
            "client.submit",
            CATEGORY_CLIENT,
            "client",
            min(child.start for child in children),
            max((child.end for child in children if child.end is not None), default=None),
            {"synthesized": True},
            clock=CLOCK_SERVICE,
            trace_id=root_trace,
            span_id=parent_id,
        )
        for (root_trace, parent_id), children in sorted(orphans.items())
    ]
    spans = [
        span if span.clock == CLOCK_SIM or span.trace_id == trace_id
        else replace(span, track=f"{span.trace_id:.8}/{span.track}")
        for span in spans
    ]
    return chrome_trace(spans, {"trace_id": trace_id})


class _BadRequest(ValueError):
    """The request head cannot be served (e.g. a bad ``Content-Length``)."""


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One request-head line; a line over the reader's limit is a bad request."""
    try:
        return await reader.readline()
    except ValueError:
        # ``StreamReader.readline`` raises ValueError past its 64 KiB limit.
        raise _BadRequest("request head line is too long") from None


def _render_response(status: int, payload, extra_headers: "dict | None" = None) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    extras = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def serve(settings: "ServiceSettings | None" = None, *, quiet: bool = False) -> int:
    """Blocking entry point for ``repro serve``: run until shut down.

    Returns the process exit code. Ctrl-C drains gracefully.
    """

    async def _main() -> None:
        service = SimulationService(settings)
        host, port = await service.start()
        if not quiet:
            print(f"repro service listening on http://{host}:{port}", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            await service.shutdown(drain=True)
            raise
        if not quiet:
            print("repro service stopped", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
