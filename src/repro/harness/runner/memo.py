"""Process-wide memo layer tying the in-memory and on-disk caches together.

Lookup order: in-memory LRU (same-object hits, preserving the historical
``a is b`` memoisation contract), then the persistent :class:`DiskCache`
(deserialised results are promoted into memory). The memory layer keeps
:data:`RESULT_MEMO_SIZE` results, so a long-running ``repro serve`` does
not grow with every distinct job; an evicted key falls through to disk.
Environment knobs are re-read whenever they change, so tests can flip
``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` with a plain
``monkeypatch.setenv`` and the next lookup honours them.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path

from ...system.results import SimulationResult
from .disk import DEFAULT_CACHE_DIR, DiskCache
from .stats import CacheStats

#: Results the memory layer keeps, least recently used evicted first: the
#: same bound as the service's finished-job records (``JOB_RECORDS``).
RESULT_MEMO_SIZE = 4096

_RESULT_CACHE: "OrderedDict[str, SimulationResult]" = OrderedDict()
_RESULT_LOCK = threading.Lock()
_STATS = CacheStats()
_DISK: "DiskCache | None" = None
_DISK_ENV: "tuple | None" = None


def _cache_env() -> tuple:
    return (
        os.environ.get("REPRO_NO_CACHE") or "",
        os.environ.get("REPRO_CACHE_DIR") or "",
    )


def disk_cache() -> "DiskCache | None":
    """The active persistent cache, or ``None`` when disabled.

    ``REPRO_NO_CACHE`` set to anything but ``""``/``"0"`` disables the
    layer; ``REPRO_CACHE_DIR`` overrides the default ``.repro-cache/``.
    """
    global _DISK, _DISK_ENV
    env = _cache_env()
    if env != _DISK_ENV:
        _DISK_ENV = env
        no_cache, cache_dir = env
        if no_cache and no_cache != "0":
            _DISK = None
        else:
            _DISK = DiskCache(Path(cache_dir or DEFAULT_CACHE_DIR), _STATS)
    return _DISK


def lookup(key: str) -> "SimulationResult | None":
    """Resolve one job key through both cache layers, counting the outcome."""
    with _RESULT_LOCK:
        cached = _RESULT_CACHE.get(key)
        if cached is not None:
            _RESULT_CACHE.move_to_end(key)
    if cached is not None:
        _STATS.memory_hits += 1
        return cached
    disk = disk_cache()
    if disk is not None:
        result = disk.get(key)
        if result is not None:
            _STATS.disk_hits += 1
            _remember(key, result)
            return result
    _STATS.misses += 1
    return None


def store(key: str, result: SimulationResult, meta: "dict | None" = None) -> SimulationResult:
    """Record one freshly computed result in both layers."""
    _remember(key, result)
    disk = disk_cache()
    if disk is not None:
        disk.put(key, result, meta)
    return result


def _remember(key: str, result: SimulationResult) -> None:
    with _RESULT_LOCK:
        _RESULT_CACHE[key] = result
        _RESULT_CACHE.move_to_end(key)
        while len(_RESULT_CACHE) > RESULT_MEMO_SIZE:
            _RESULT_CACHE.popitem(last=False)


def clear() -> None:
    """Drop the in-memory memo, zero the counters, and detach the disk handle.

    The handle is re-resolved from the environment on the next lookup —
    tests that mutate global knobs between runs (the clear-between-mutations
    pattern) therefore also get a freshly configured persistent layer.
    Persistent *records* are left on disk; ``clear_disk_cache`` removes those.
    """
    global _DISK, _DISK_ENV
    with _RESULT_LOCK:
        _RESULT_CACHE.clear()
    _STATS.reset()
    _DISK = None
    _DISK_ENV = None


def stats() -> CacheStats:
    """Live counters for this process."""
    return _STATS
