"""In-process analysis-result cache keyed by program fingerprint.

The runner re-analyzes the same program once per (workload, paradigm, GPU
count) job even though the diagnostics only depend on the program and the
page size. Diagnostics are immutable (frozen dataclasses all the way
down), so one analysis can be shared freely: the cache stores the final
diagnostic tuple under ``(program_fingerprint, select, ignore)`` and a
small LRU bound keeps a long-lived service process from accumulating
unboundedly. ``analyze_program(..., use_cache=False)`` bypasses it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .diagnostics import Diagnostic

#: Cache key: (program fingerprint, selected codes, ignored codes).
CacheKey = tuple[str, tuple[str, ...], tuple[str, ...]]

#: Entries kept before least-recently-used eviction.
MAX_ENTRIES = 512


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters for observability and benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    def to_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_entries: "OrderedDict[CacheKey, tuple[Diagnostic, ...]]" = OrderedDict()
_stats = CacheStats()


def cache_get(key: CacheKey) -> "tuple[Diagnostic, ...] | None":
    """Cached diagnostics for ``key``, refreshing its recency."""
    cached = _entries.get(key)
    if cached is None:
        _stats.misses += 1
        return None
    _entries.move_to_end(key)
    _stats.hits += 1
    return cached


def cache_put(key: CacheKey, diagnostics: "tuple[Diagnostic, ...]") -> None:
    """Store one analysis, evicting the least recently used beyond the bound."""
    _entries[key] = diagnostics
    _entries.move_to_end(key)
    while len(_entries) > MAX_ENTRIES:
        _entries.popitem(last=False)
        _stats.evictions += 1


def cache_stats() -> CacheStats:
    """The live counter object (mutates as the cache is used)."""
    return _stats


def cache_size() -> int:
    """Number of cached analyses."""
    return len(_entries)


def clear_cache() -> None:
    """Drop every entry and reset the counters."""
    _entries.clear()
    _stats.hits = _stats.misses = _stats.evictions = 0
