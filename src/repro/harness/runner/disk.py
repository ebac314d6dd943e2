"""Persistent on-disk result cache: one JSON record per simulation.

Records live under a cache directory (default ``.repro-cache/`` in the
working directory, overridable via ``REPRO_CACHE_DIR``; ``REPRO_NO_CACHE``
disables the layer entirely). Filenames are the job fingerprints, which
already embed the model version — a simulator upgrade therefore misses
cleanly instead of replaying stale results. Writes are crash-safe: record
bytes are flushed and fsynced to a temp file *before* the atomic
``os.replace``, so neither a concurrent reader nor a reader after a crash
can observe a torn record — the published name either holds the complete
old record or the complete new one. Corrupt files (e.g. a stray partial
temp promoted by hand) are dropped on read and counted as evictions.
Outcomes are counted under ``host.results.{disk_writes,disk_errors,evictions}``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ...obs.host import HOST
from ...system.results import SimulationResult
from .fingerprint import MODEL_FINGERPRINT

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: On-disk record format version.
RECORD_VERSION = 1

_DISK_WRITES = HOST.counter("host.results.disk_writes")
_DISK_ERRORS = HOST.counter("host.results.disk_errors")
_EVICTIONS = HOST.counter("host.results.evictions")


class DiskCache:
    """Fingerprint-keyed JSON store for :class:`SimulationResult` records."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> "SimulationResult | None":
        """Load one cached result, or ``None`` on miss/corruption.

        Concurrent readers must *never* raise out of this method: a reader
        racing a writer mid-``os.replace``, or landing on a truncated or
        otherwise corrupt record (including valid JSON that is not a dict),
        counts a miss — the caller recomputes — and the bad record is
        dropped so the next reader misses cleanly too.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            _DISK_ERRORS.add()
            self._evict(path)
            return None
        try:
            if not isinstance(payload, dict):
                raise ValueError("record is not a JSON object")
            if payload.get("key") != key or payload.get("record_version") != RECORD_VERSION:
                raise ValueError("record does not match its filename")
            return SimulationResult.from_dict(payload["result"])
        except (AttributeError, KeyError, TypeError, ValueError):
            _DISK_ERRORS.add()
            self._evict(path)
            return None

    def put(self, key: str, result: SimulationResult, meta: "dict | None" = None) -> None:
        """Persist one result crash-safely; failures disable nothing, they just count.

        The record is written to a pid-suffixed temp name, flushed, and
        fsynced before ``os.replace`` publishes it: a crash at any point
        leaves either no record or the previous complete one — never a
        truncated file under the final name.
        """
        record = {
            "record_version": RECORD_VERSION,
            "model": MODEL_FINGERPRINT,
            "key": key,
            "job": meta or {},
            "result": result.to_dict(),
        }
        tmp = self._path(key).with_suffix(f".tmp.{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
        except OSError:
            _DISK_ERRORS.add()
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        _DISK_WRITES.add()

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
            _EVICTIONS.add()
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in self.record_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        _EVICTIONS.add(removed)
        return removed

    def record_paths(self) -> "list[Path]":
        """Every persisted record, listed from the directory on each call."""
        if not self.directory.is_dir():
            return []
        return list(self.directory.glob("*.json"))
