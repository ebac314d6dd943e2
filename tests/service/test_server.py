"""HTTP API tests against a live service on an ephemeral port."""

import gc
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.harness.runner import clear_run_cache, run_many_settled
from repro.service import (
    ClientError,
    JobFailed,
    ServiceSettings,
    parse_job_payload,
    server,
)

from .conftest import LiveService

FAST = dict(scale=0.1, iterations=2, gpus=2)


def raw_request(url, method="GET", body=None, timeout=60):
    """Talk to the server without the SDK, to pin the wire format."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_exchange(service, data: bytes):
    """Send raw bytes, read the reply to EOF: ``(status, JSON payload)``."""
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    status_line, _, rest = b"".join(chunks).partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


@pytest.fixture
def gated(fast_settings):
    """A live service whose runner holds every batch until ``release`` is set.

    Released, the batch runs for real, or, with ``fail`` set to an
    exception, fails every simulation in it with that exception.
    """
    clear_run_cache()
    live = LiveService(fast_settings)
    gate = SimpleNamespace(
        live=live, running=threading.Event(), release=threading.Event(), fail=None
    )

    def runner(sims, max_workers=None, traced=False):
        gate.running.set()
        gate.release.wait(30)
        if gate.fail is not None:
            return [(gate.fail, None) for _ in sims]
        return run_many_settled(sims, max_workers, traced=traced)

    live.service.scheduler._runner = runner
    yield gate
    gate.release.set()
    live.stop(drain=False)
    clear_run_cache()


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class _LongPoll(threading.Thread):
    """``GET /results/{id}?wait=30`` on its own thread; ``answer`` once back."""

    def __init__(self, live, job_id):
        super().__init__(daemon=True)
        self.url = f"{live.url}/results/{job_id}?wait=30"
        self.answer = None

    def run(self):
        self.answer = raw_request(self.url)


def _long_polls(live, *job_ids):
    """Start one long-poll per id; return once the server holds them all."""
    polls = [_LongPoll(live, job_id) for job_id in job_ids]
    for poll in polls:
        poll.start()
    _until(lambda: len(live.service._answering) >= len(polls))
    return polls


def _answers(polls):
    for poll in polls:
        poll.join(30)
        assert not poll.is_alive(), "long-poll never answered"
    return [poll.answer for poll in polls]


class TestRoutes:
    def test_healthz(self, live_service):
        status, payload = raw_request(live_service.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["draining"] is False

    def test_unknown_route_404(self, live_service):
        status, payload = raw_request(live_service.url + "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_405(self, live_service):
        status, _ = raw_request(live_service.url + "/jobs", method="GET")
        assert status == 405

    def test_unknown_job_404(self, live_service):
        client = live_service.client()
        with pytest.raises(ClientError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_submit_rejects_bad_payloads(self, live_service):
        for body, fragment in [
            ({"workload": "zzz"}, "unknown workload"),
            ({"workload": "jacobi", "paradigm": "zzz"}, "unknown paradigm"),
            ({"workload": "jacobi", "link": "zzz"}, "unknown link"),
            ({"workload": "jacobi", "gpus": 0}, "gpus"),
            ({"workload": "jacobi", "scale": -1}, "scale"),
            ({"workload": "jacobi", "bogus": 1}, "unknown fields"),
        ]:
            status, payload = raw_request(live_service.url + "/jobs", "POST", body)
            assert status == 400, body
            assert fragment in payload["error"], body

    def test_submit_rejects_non_json_body(self, live_service):
        request = urllib.request.Request(
            live_service.url + "/jobs", data=b"{not json", method="POST"
        )
        try:
            with urllib.request.urlopen(request) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

    @pytest.mark.parametrize(
        "content_length",
        ["-5", "abc", str(2 * 1024 * 1024)],
        ids=["negative", "non-integer", "over-limit"],
    )
    def test_bad_content_length_is_a_400(self, live_service, content_length):
        """Rejected from the head alone: no body is sent or read."""
        service = live_service.service
        head = (
            "POST /jobs HTTP/1.1\r\n"
            f"Host: {service.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n"
            "\r\n"
        )
        status, payload = raw_exchange(service, head.encode("latin-1"))
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_malformed_request_line_is_a_400(self, live_service):
        status, payload = raw_exchange(live_service.service, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert "malformed request line" in payload["error"]

    def test_overlong_header_line_is_a_400(self, live_service):
        """A header past the stream reader's 64 KiB line limit still gets a reply."""
        head = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        status, payload = raw_exchange(live_service.service, head)
        assert status == 400
        assert "too long" in payload["error"]

    def test_metrics_exposes_queue_depth_and_latency(self, live_service):
        metrics = live_service.client().metrics()
        assert "service.queue.depth" in metrics
        assert "service.latency.wait_s.count" in metrics
        assert "service.latency.run_s.le_inf" in metrics


class TestObservabilityRoutes:
    def test_healthz_reports_trace(self, live_service):
        status, payload = raw_request(live_service.url + "/healthz")
        assert status == 200
        # Tracing is always on: the trace is derived from the job records,
        # so healthz carries no switch for it.
        assert "trace" not in payload

    def test_unknown_trace_404(self, live_service):
        status, payload = raw_request(live_service.url + "/traces/" + "0" * 32)
        assert status == 404
        assert "unknown trace id" in payload["error"]

    def test_new_routes_reject_wrong_method(self, live_service):
        for path in ("/traces/abc", "/results/x", "/jobs/x"):
            status, _ = raw_request(live_service.url + path, method="POST")
            assert status == 405, path


class TestJobFlow:
    def test_submit_poll_result(self, live_service):
        client = live_service.client()
        job = client.submit("jacobi", **FAST)
        assert job["state"] in ("queued", "running", "done")
        assert job["id"].startswith("job-")
        payload = client.wait(job["id"], timeout=60)
        assert payload["state"] == "done"
        assert payload["result"]["program_name"].startswith("jacobi")
        assert payload["result"]["total_time"] > 0
        status = client.status(job["id"])
        assert status["state"] == "done"
        assert status["wait_s"] >= 0 and status["run_s"] >= 0

    def test_workload_alias_accepted(self, live_service):
        client = live_service.client()
        payload = client.run("stencil", timeout=60, **FAST)
        assert payload["result"]["program_name"].startswith("jacobi")

    def test_concurrent_identical_submissions_coalesce(self, gated):
        live = gated.live
        client = live.client()
        # Two submissions race in over separate connections while the
        # runner holds the first batch: exactly one simulation must run.
        # Unheld, a run of a few ms can finish before the second arrives.
        jobs = {}

        def submit(slot):
            jobs[slot] = live.client().submit("ct", **FAST)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gated.release.set()
        first, second = jobs[0], jobs[1]
        assert first["key"] == second["key"]
        assert sorted([first["coalesced"], second["coalesced"]]) == [False, True]
        payloads = [
            client.wait(job["id"], timeout=60) for job in (first, second)
        ]
        raw = [json.dumps(p["result"], sort_keys=True) for p in payloads]
        assert raw[0] == raw[1]
        metrics = client.metrics()
        assert metrics["service.queue.coalesced"] == 1
        assert metrics["service.jobs.completed"] == 2
        assert metrics["service.runner.fleet.jobs_computed"] == 1

    def test_cache_hit_completes_instantly(self, live_service):
        client = live_service.client()
        first = client.run("jacobi", timeout=60, **FAST)
        job = client.submit("jacobi", **FAST)
        assert job["cache_hit"] is True
        assert job["state"] == "done"
        second = client.wait(job["id"], timeout=10)
        assert json.dumps(second["result"], sort_keys=True) == json.dumps(
            first["result"], sort_keys=True
        )

    def test_failed_job_reports_error(self, live_service, monkeypatch):
        # Break the compute path itself: with REPRO_MAX_WORKERS=1 the
        # scheduler computes serially in this process, so the patch reaches
        # the server thread and the job fails on every retry.
        from repro.harness.runner import parallel

        def explode(job, traced=False):
            raise RuntimeError("injected compute failure")

        monkeypatch.setattr(parallel, "compute_job", explode)
        client = live_service.client()
        job = client.submit("eqwp", **FAST)
        with pytest.raises(JobFailed):
            client.wait(job["id"], timeout=60)
        status = client.status(job["id"])
        assert status["state"] == "failed"
        assert "injected compute failure" in status["error"]
        assert status["attempts"] == 2  # initial + fast_settings' 1 retry
        metrics = client.metrics()
        assert metrics["service.jobs.failed"] == 1
        assert metrics["service.jobs.retried"] == 1


class TestResultWait:
    def test_wait_on_a_finished_job_answers_at_once(self, live_service):
        client = live_service.client()
        done = client.run("jacobi", timeout=60, **FAST)
        url = f"{live_service.url}/results/{done['id']}"
        start = time.monotonic()
        status, payload = raw_request(url + "?wait=30")
        assert time.monotonic() - start < 5
        assert (status, payload) == raw_request(url) == (200, done)

    def test_timed_out_wait_is_a_202_and_the_job_still_completes(self, gated):
        client = gated.live.client()
        job = client.submit("jacobi", **FAST)
        assert gated.running.wait(10)
        start = time.monotonic()
        status, payload = raw_request(f"{gated.live.url}/results/{job['id']}?wait=0.2")
        assert time.monotonic() - start >= 0.2
        assert status == 202
        assert payload == {"id": job["id"], "state": "running"}
        gated.release.set()
        assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_primary_and_duplicate_both_wake(self, gated):
        client = gated.live.client()
        primary = client.submit("ct", **FAST)
        assert gated.running.wait(10)
        duplicate = client.submit("ct", **FAST)
        assert duplicate["coalesced"] is True
        # The duplicate's wait times out on the shared future: that must
        # not cancel it for the primary.
        url = f"{gated.live.url}/results/{duplicate['id']}?wait=0.1"
        assert raw_request(url)[0] == 202
        polls = _long_polls(gated.live, primary["id"], duplicate["id"])
        gated.release.set()
        (status_a, a), (status_b, b) = _answers(polls)
        assert status_a == status_b == 200
        assert (a["id"], b["id"]) == (primary["id"], duplicate["id"])
        assert a["result"] == b["result"]
        assert client.metrics()["service.runner.fleet.jobs_computed"] == 1

    def test_failed_job_is_a_500_and_logs_nothing(self, gated, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        gated.fail = RuntimeError("injected failure")
        job = gated.live.client().submit("eqwp", **FAST)
        (poll,) = _long_polls(gated.live, job["id"])
        gated.release.set()
        ((status, payload),) = _answers([poll])
        assert status == 500
        assert payload["state"] == "failed"
        assert "injected failure" in payload["error"]
        gc.collect()
        assert "never retrieved" not in caplog.text

    def test_wait_is_capped(self, gated, monkeypatch):
        monkeypatch.setattr(server, "RESULT_WAIT_CAP_S", 0.2)
        job = gated.live.client().submit("jacobi", **FAST)
        start = time.monotonic()
        status, _ = raw_request(f"{gated.live.url}/results/{job['id']}?wait=3600")
        assert status == 202
        assert time.monotonic() - start < 10

    def test_unknown_id_is_a_404(self, live_service):
        status, payload = raw_request(f"{live_service.url}/results/job-999999?wait=30")
        assert status == 404
        assert "unknown job id" in payload["error"]

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_a_400(self, gated, wait):
        job = gated.live.client().submit("jacobi", **FAST)
        status, payload = raw_request(f"{gated.live.url}/results/{job['id']}?wait={wait}")
        assert status == 400
        assert "wait must be a finite number" in payload["error"]

    def test_shutdown_drain_delivers_a_pending_long_poll(self, gated):
        live = gated.live
        job = live.client().submit("jacobi", **FAST)
        assert gated.running.wait(10)
        (poll,) = _long_polls(live, job["id"])
        live.client().shutdown(drain=True)
        gated.release.set()
        ((status, payload),) = _answers([poll])
        assert status == 200
        assert payload["state"] == "done"
        live._thread.join(30)
        assert not live._thread.is_alive()

    def test_shutdown_without_drain_fails_a_pending_long_poll(self, gated):
        live = gated.live
        job = live.client().submit("jacobi", **FAST)
        assert gated.running.wait(10)
        (poll,) = _long_polls(live, job["id"])
        live.client().shutdown(drain=False)
        ((status, payload),) = _answers([poll])
        assert status == 500
        assert payload["error"].startswith("ServiceClosed")
        # The loop's exit joins the runner thread, which the gate holds.
        gated.release.set()
        live._thread.join(30)
        assert not live._thread.is_alive()


class TestBackpressure:
    def test_full_queue_returns_429(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        clear_run_cache()
        service = LiveService(
            ServiceSettings(host="127.0.0.1", port=0, queue_depth=1, max_workers=1)
        )
        # A runner that blocks until released: job A runs, job B takes the
        # one queue slot, and job C finds the queue full.
        running, release = threading.Event(), threading.Event()

        def blocked(sims, max_workers=None, traced=False):
            running.set()
            release.wait(30)
            return [(RuntimeError("released"), None) for _ in sims]

        service.service.scheduler._runner = blocked
        try:
            client = service.client()
            client.submit("jacobi", **FAST)
            assert running.wait(10)
            client.submit("pagerank", **FAST)
            with pytest.raises(ClientError) as excinfo:
                client.submit("eqwp", **FAST)
            assert excinfo.value.status == 429
            assert client.metrics()["service.queue.rejected"] == 1
        finally:
            release.set()
            service.stop(drain=False)
            clear_run_cache()


class TestShutdown:
    def test_drain_completes_inflight_work(self, fast_settings):
        clear_run_cache()
        service = LiveService(fast_settings)
        client = service.client()
        job = client.submit("jacobi", **FAST)
        client.shutdown(drain=True)
        service._thread.join(60)
        assert not service._thread.is_alive()
        # The job settled before the server stopped: its future resolved.
        queue_job = service.service.queue.get(job["id"])
        assert queue_job.state.value == "done"
        clear_run_cache()

    def test_draining_service_rejects_new_jobs(self, fast_settings):
        clear_run_cache()
        service = LiveService(fast_settings)
        try:
            client = service.client()
            client.submit("jacobi", **FAST)  # keeps the drain busy briefly
            service.service.queue.close()
            with pytest.raises(ClientError) as excinfo:
                client.submit("pagerank", **FAST)
            assert excinfo.value.status == 503
        finally:
            service.stop(drain=False)
            clear_run_cache()


class TestSettings:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_SERVICE_PORT", "abc"),
            ("REPRO_SERVICE_MAX_RETRIES", "two"),
            ("REPRO_SERVICE_QUEUE_DEPTH", "deep"),
        ],
    )
    def test_malformed_env_number_names_the_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name} .*{value!r}"):
            ServiceSettings.from_env()

    def test_env_numbers_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "9000")
        monkeypatch.setenv("REPRO_SERVICE_MAX_RETRIES", "3")
        monkeypatch.setenv("REPRO_SERVICE_BATCH_SIZE", "2")
        settings = ServiceSettings.from_env()
        assert (settings.port, settings.max_retries, settings.batch_size) == (9000, 3, 2)


class TestPayloadValidation:
    def test_parse_job_payload_round_trip(self):
        sim, priority = parse_job_payload(
            {"workload": "stencil", "gpus": 2, "scale": 0.25, "priority": 3}
        )
        assert sim.workload == "jacobi"
        assert sim.paradigm == "gps"
        assert sim.num_gpus == 2
        assert priority == 3

    def test_parse_job_payload_rejects_non_object(self):
        with pytest.raises(ValueError):
            parse_job_payload([1, 2, 3])

    def test_parse_job_payload_rejects_bool_ints(self):
        with pytest.raises(ValueError):
            parse_job_payload({"workload": "jacobi", "gpus": True})
