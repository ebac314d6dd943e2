"""Client SDK tests: URL resolution, error surfaces and the long-poll."""

import socket
import time
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.errors import ServiceError
from repro.harness.runner import run_many_settled
from repro.service import ClientError, ServiceClient, service_url

FAST = dict(scale=0.1, iterations=2, gpus=2)


class TestServiceUrl:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://example:1")
        assert service_url("http://other:2") == "http://other:2"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://example:1")
        assert service_url() == "http://example:1"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        assert service_url() == "http://127.0.0.1:8787"

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ClientError):
            ServiceClient("https://secure:443")


class TestTransportErrors:
    def test_unreachable_service_raises_client_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ClientError, match="cannot reach service") as excinfo:
            client.healthz()
        assert excinfo.value.status is None
        # ClientError is part of the library-wide hierarchy.
        assert isinstance(excinfo.value, ServiceError)

    def test_read_timeout_names_the_timeout_and_the_path(self):
        # A listener that never accepts: the connect succeeds, no reply comes.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=0.2)
            with pytest.raises(ClientError) as excinfo:
                client.status("job-000001")
        message = str(excinfo.value)
        assert "cannot reach" not in message
        assert "GET /jobs/job-000001" in message
        assert "0.2s" in message
        assert excinfo.value.status is None


class TestWait:
    def scripted(self, replies, timeout=10.0):
        """A client whose requests get ``replies`` in turn; returns the paths sent."""
        client = ServiceClient("http://127.0.0.1:9", timeout=timeout)
        paths = []

        def request(method, path, body=None, headers=None):
            paths.append(path)
            return replies.pop(0)

        client._request = request
        return client, paths

    def test_each_request_holds_at_most_half_the_socket_timeout(self):
        done = {"id": "job-000001", "state": "done"}
        client, paths = self.scripted([(202, {}), (202, {}), (200, done)], timeout=10.0)
        assert client.wait("job-000001", timeout=300) == done
        assert len(paths) == 3
        for path in paths:
            split = urlsplit(path)
            assert split.path == "/results/job-000001"
            assert float(parse_qs(split.query)["wait"][0]) == 5.0

    def test_wait_asks_for_no_more_than_is_left(self):
        done = {"id": "job-000001", "state": "done"}
        client, paths = self.scripted([(200, done)], timeout=10.0)
        client.wait("job-000001", timeout=1.0)
        assert 0.0 < float(parse_qs(urlsplit(paths[0]).query)["wait"][0]) <= 1.0

    def test_deadline_raises_without_sleeping(self):
        client, paths = self.scripted([(202, {})])
        with pytest.raises(ClientError, match="timed out"):
            client.wait("job-000001", timeout=0)
        assert paths == ["/results/job-000001?wait=0.000"]

    def test_result_does_not_wait(self):
        client, paths = self.scripted([(202, {})])
        assert client.result("job-000001") is None
        assert paths == ["/results/job-000001"]


class TestRoundTrips:
    def test_cold_run_is_one_submit_and_one_result_request(self, live_service):
        def slow(sims, max_workers=None, traced=False, pool=None):
            time.sleep(0.2)  # several poll intervals of a polling client
            return run_many_settled(sims, max_workers, traced=traced, pool=pool)

        live_service.service.scheduler._runner = slow
        client = live_service.client()
        sent = []
        request = client._request

        def counted(method, path, *args, **kwargs):
            sent.append((method, "/" + path.split("/")[1].partition("?")[0]))
            return request(method, path, *args, **kwargs)

        client._request = counted
        payload = client.run("jacobi", timeout=60, **FAST)
        assert payload["state"] == "done"
        assert sent == [("POST", "/jobs"), ("GET", "/results")]
