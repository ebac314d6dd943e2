"""Client SDK for the simulation service.

:class:`ServiceClient` speaks the service's JSON API over
:mod:`http.client` (nothing outside the stdlib) and raises
:class:`ClientError` (a :class:`repro.errors.ServiceError`) on HTTP-level
failures, carrying the status code and the server's ``error`` message.

Typical use::

    client = ServiceClient("http://127.0.0.1:8787")
    job = client.submit("jacobi", paradigm="gps", gpus=4)
    payload = client.wait(job["id"], timeout=120)
    print(payload["result"]["total_time"])

:meth:`ServiceClient.wait` long-polls: the server holds each
``GET /results/{id}?wait=`` until the job settles, so the result comes
back the moment it exists, in one round trip.

The default URL comes from ``REPRO_SERVICE_URL`` (falling back to
``http://127.0.0.1:8787``), so CLI verbs and scripts against a local
service need no configuration at all.

Observability: :meth:`ServiceClient.submit` mints a W3C trace context and
sends it as a ``traceparent`` header (``trace=False`` opts out), so the
server's spans parent under the client's trace; the submit payload echoes
the minted ids as ``client_trace``, and :meth:`ServiceClient.trace`
downloads the distributed trace (optionally as Perfetto/Chrome-trace
JSON).
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.parse

from ..errors import ServiceError
from ..obs.distributed import TraceContext

#: Default service URL when neither an argument nor the env knob is given.
DEFAULT_URL = "http://127.0.0.1:8787"


def service_url(url: "str | None" = None) -> str:
    """Resolve the service URL: argument, ``REPRO_SERVICE_URL``, default."""
    return url or os.environ.get("REPRO_SERVICE_URL") or DEFAULT_URL


class ClientError(ServiceError):
    """An HTTP request to the service failed.

    ``status`` is the HTTP status code, or ``None`` for transport-level
    failures (connection refused, no reply within the socket timeout).
    """

    def __init__(self, message: str, status: "int | None" = None) -> None:
        super().__init__(message)
        self.status = status


class JobFailed(ServiceError):
    """The submitted job exhausted its retries and failed server-side."""


def _check(status: int, payload: dict, accept: "tuple[int, ...]") -> dict:
    if status not in accept:
        message = payload.get("error") if isinstance(payload, dict) else None
        raise ClientError(message or f"service returned HTTP {status}", status=status)
    return payload


class ServiceClient:
    """Blocking SDK over :mod:`http.client`.

    ``client`` is an optional caller label; it travels as the
    ``x-repro-client`` header on submissions and is echoed in the job
    status.
    """

    def __init__(
        self,
        url: "str | None" = None,
        timeout: float = 30.0,
        client: "str | None" = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(service_url(url))
        if parsed.scheme != "http" or not parsed.hostname:
            raise ClientError(f"unsupported service URL: {service_url(url)!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.client = client

    def _request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        headers: "dict | None" = None,
    ) -> "tuple[int, dict]":
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        where = f"service at http://{self.host}:{self.port}"
        connected = False
        try:
            conn.connect()
            connected = True
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            send_headers = {"Content-Type": "application/json"} if payload else {}
            send_headers.update(headers or {})
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {}
            return response.status, decoded
        except OSError as exc:
            if connected and isinstance(exc, TimeoutError):
                raise ClientError(
                    f"{where} sent no reply to {method} {path} within {self.timeout:g}s"
                ) from exc
            raise ClientError(f"cannot reach {where}: {exc}") from exc
        finally:
            conn.close()

    def healthz(self) -> dict:
        """Liveness probe payload (status plus queue gauges)."""
        return _check(*self._request("GET", "/healthz"), accept=(200,))

    def metrics(self) -> dict:
        """The service's counter-registry snapshot."""
        return _check(*self._request("GET", "/metrics"), accept=(200,))["metrics"]

    def submit(
        self,
        workload: str,
        paradigm: str = "gps",
        gpus: int = 4,
        link: str = "pcie6",
        scale: float = 0.5,
        iterations: int = 8,
        priority: int = 0,
        trace: bool = True,
    ) -> dict:
        """Submit one simulation; returns the job status payload.

        With ``trace`` on (default), a fresh W3C trace context is minted
        and propagated via the ``traceparent`` header; its ids are echoed
        back in the returned payload under ``client_trace`` so callers can
        fetch ``GET /traces/{trace_id}`` later.
        """
        body = {
            "workload": workload,
            "paradigm": paradigm,
            "gpus": gpus,
            "link": link,
            "scale": scale,
            "iterations": iterations,
            "priority": priority,
        }
        headers = {}
        if self.client:
            headers["x-repro-client"] = self.client
        context = None
        if trace:
            context = TraceContext.mint()
            headers["traceparent"] = context.to_traceparent()
        payload = _check(
            *self._request("POST", "/jobs", body, headers=headers), accept=(200, 202)
        )
        if context is not None:
            payload["client_trace"] = {
                "trace_id": context.trace_id,
                "span_id": context.span_id,
            }
        return payload

    def trace(self, trace_id: str, perfetto: bool = False) -> dict:
        """One distributed trace's span closure (optionally Perfetto JSON)."""
        path = f"/traces/{trace_id}" + ("?format=perfetto" if perfetto else "")
        return _check(*self._request("GET", path), accept=(200,))

    def status(self, job_id: str) -> dict:
        """Job status payload for one id."""
        return _check(*self._request("GET", f"/jobs/{job_id}"), accept=(200,))

    def result(self, job_id: str) -> "dict | None":
        """Full result payload once done, ``None`` while pending.

        Raises :class:`JobFailed` once the job has failed server-side.
        """
        return self._result(job_id)

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Block until the job completes; returns the result payload.

        Each request asks the server to hold it until the job settles
        (``GET /results/{id}?wait=``), for at most half the socket
        timeout so that a long-poll never outlasts its own socket; a
        ``202`` asks again until ``timeout`` runs out.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            payload = self._result(job_id, wait=min(remaining, self.timeout / 2))
            if payload is not None:
                return payload
            if time.monotonic() >= deadline:
                raise ClientError(f"timed out after {timeout:.0f}s waiting for {job_id}")

    def _result(self, job_id: str, wait: "float | None" = None) -> "dict | None":
        path = f"/results/{job_id}" + ("" if wait is None else f"?wait={wait:.3f}")
        status, payload = self._request("GET", path)
        if status == 202:
            return None
        if status == 500:
            raise JobFailed(payload.get("error") or f"job {job_id} failed")
        return _check(status, payload, accept=(200,))

    def run(self, workload: str, timeout: float = 300.0, **kwargs) -> dict:
        """Submit + wait in one call; returns the result payload."""
        job = self.submit(workload, **kwargs)
        return self.wait(job["id"], timeout=timeout)

    def shutdown(self, drain: bool = True) -> dict:
        """Ask the service to shut down (draining by default)."""
        return _check(
            *self._request("POST", "/shutdown", {"drain": drain}), accept=(202,)
        )
