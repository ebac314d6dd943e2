"""Unit tests for DiskCache durability and its directory listing.

* ``put`` is crash-safe — record bytes are flushed/fsynced to a temp file
  before ``os.replace``, so an injected failure mid-write can never tear
  the published record; and
* the listing (``record_paths``, and the counts ``repro cache show``
  prints from it) always reflects the directory after the cache's own
  writes, clears and evictions.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.cli import main
from repro.config import PCIE6
from repro.harness.runner import cache_stats, clear_run_cache
from repro.harness.runner.disk import DiskCache


@pytest.fixture(scope="module")
def results():
    """Two distinct tiny results to write through the cache."""
    program = repro.get_workload("jacobi").build(2, scale=0.1, iterations=2)
    config = repro.default_system(2, PCIE6)
    return {
        name: repro.PARADIGMS[name](program, config).run()
        for name in ("memcpy", "gps")
    }


class TestCrashSafePut:
    def test_fsync_happens_before_publish(self, tmp_path, monkeypatch, results):
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (order.append("replace"), real_replace(a, b))[1],
        )
        DiskCache(tmp_path).put("k1", results["memcpy"])
        assert order == ["fsync", "replace"]

    def test_injected_partial_write_never_tears_record(
        self, tmp_path, monkeypatch, results
    ):
        cache = DiskCache(tmp_path)
        cache.put("k1", results["memcpy"], {"workload": "jacobi"})
        errors = cache_stats().counter("disk_errors").value
        published = (tmp_path / "k1.json").read_text()

        # Crash injection: the temp file holds partial (unsynced) bytes
        # when the simulated power cut hits at fsync time.
        def crash(fd):
            raise OSError("injected crash mid-write")

        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", crash)
            cache.put("k1", results["gps"], {"workload": "jacobi"})

        # The published name still holds the previous complete record ...
        assert (tmp_path / "k1.json").read_text() == published
        loaded = cache.get("k1")
        assert loaded is not None
        assert loaded.to_dict() == results["memcpy"].to_dict()
        # ... the failure was counted, and the partial temp was cleaned up.
        assert cache_stats().counter("disk_errors").value == errors + 1
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_failed_write_to_fresh_key_publishes_nothing(
        self, tmp_path, monkeypatch, results
    ):
        cache = DiskCache(tmp_path)
        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError()))
            cache.put("k1", results["memcpy"])
        assert list(tmp_path.iterdir()) == []
        assert cache.get("k1") is None

    def test_put_survives_crash_then_succeeds(self, tmp_path, monkeypatch, results):
        cache = DiskCache(tmp_path)
        before = cache_stats().as_dict()
        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError()))
            cache.put("k1", results["memcpy"])
        cache.put("k1", results["gps"])
        assert cache.get("k1").to_dict() == results["gps"].to_dict()
        after = cache_stats().as_dict()
        assert after["disk_writes"] == before["disk_writes"] + 1
        assert after["disk_errors"] == before["disk_errors"] + 1


class TestMemoisedScan:
    """The listing is read from the directory on every call (no memo), so it
    follows the cache's own writes, clears and evictions."""

    def _populate(self, cache, results, n=3):
        for i in range(n):
            cache.put(f"k{i}", results["memcpy"], {"workload": "jacobi"})

    def test_cache_show_counts_follow_put_and_clear(
        self, tmp_path, monkeypatch, capsys, results
    ):
        monkeypatch.setenv("REPRO_NO_CACHE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_run_cache()

        def shown_entries() -> str:
            """The ``entries`` value: ``<count> (<size>)``."""
            assert main(["cache", "show"]) == 0
            line = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("entries")
            )
            return line.split(":", 1)[1].strip()

        try:
            cache = DiskCache(tmp_path)
            self._populate(cache, results)
            three = shown_entries()
            assert three.startswith("3 (") and three != "3 (0.0 B)"
            cache.put("k9", results["gps"])
            assert shown_entries().startswith("4 (")
            assert main(["cache", "clear"]) == 0
            assert "removed 4" in capsys.readouterr().out
            assert shown_entries() == "0 (0.0 B)"
        finally:
            clear_run_cache()

    def test_clear_invalidates_scan(self, tmp_path, results):
        cache = DiskCache(tmp_path)
        self._populate(cache, results)
        assert len(cache.record_paths()) == 3
        assert cache.clear() == 3
        assert len(cache.record_paths()) == 0

    def test_corrupt_eviction_invalidates_scan(self, tmp_path, results):
        cache = DiskCache(tmp_path)
        self._populate(cache, results)
        assert len(cache.record_paths()) == 3
        (tmp_path / "k1.json").write_text("{torn")
        assert cache.get("k1") is None  # evicts the corrupt record
        assert len(cache.record_paths()) == 2

    def test_scan_starts_fresh_when_directory_appears_late(self, tmp_path, results):
        cache = DiskCache(tmp_path / "not-yet")
        assert len(cache.record_paths()) == 0
        cache.put("k0", results["memcpy"])
        assert len(cache.record_paths()) == 1
        record = json.loads((tmp_path / "not-yet" / "k0.json").read_text())
        assert record["key"] == "k0"
