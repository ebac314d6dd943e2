"""Fixtures for the service suite: live servers on ephemeral ports.

``live_service`` boots a full :class:`SimulationService` (HTTP + scheduler)
in a background thread with its own event loop, bound to port 0, and tears
it down through the client's ``/shutdown`` route. Tests that only need the
queue or scheduler drive them directly inside ``asyncio.run`` instead.
"""

from __future__ import annotations

import threading

import pytest

from repro.harness.runner import clear_run_cache
from repro.service import ServiceClient, ServiceSettings, SimulationService


class LiveService:
    """Handle on a service running in a background thread."""

    def __init__(self, settings: ServiceSettings) -> None:
        import asyncio

        self.settings = settings
        self.service: "SimulationService | None" = None
        self._started = threading.Event()

        def _run() -> None:
            async def _main() -> None:
                self.service = SimulationService(settings)
                await self.service.start()
                self._started.set()
                await self.service.serve_forever()

            asyncio.run(_main())

        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        assert self._started.wait(10), "service failed to start"

    @property
    def url(self) -> str:
        assert self.service is not None
        return f"http://{self.service.host}:{self.service.port}"

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient(self.url, timeout=timeout)

    def stop(self, drain: bool = True) -> None:
        if self._thread.is_alive():
            try:
                self.client(timeout=5.0).shutdown(drain=drain)
            except Exception:
                pass
            self._thread.join(30)
        assert not self._thread.is_alive(), "service thread failed to stop"


@pytest.fixture
def fast_settings(monkeypatch) -> ServiceSettings:
    """Small, serial, low-latency settings for tests."""
    monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
    return ServiceSettings(
        host="127.0.0.1",
        port=0,
        queue_depth=32,
        batch_size=4,
        max_retries=1,
        max_workers=1,
    )


@pytest.fixture
def live_service(fast_settings):
    """A running service + blocking client against a clean memo cache."""
    clear_run_cache()
    service = LiveService(fast_settings)
    yield service
    service.stop(drain=False)
    clear_run_cache()
