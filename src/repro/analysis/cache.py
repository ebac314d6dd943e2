"""In-process analysis-result cache keyed by program fingerprint.

Diagnostics depend only on the program's content and the page size, so a
sweep that runs one program under many paradigms and configs analyzes it
once. Diagnostics are immutable (frozen dataclasses all the way down), so
one analysis can be shared freely: the cache stores the final diagnostic
tuple under ``(program_fingerprint, select, ignore)`` and a small LRU
bound keeps a long-lived service process from accumulating unboundedly.
``analyze_program(..., use_cache=False)`` bypasses it. Lookups and
evictions are counted under ``host.diagnostics.{hits,misses,evictions}``.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs.host import HOST
from ..obs.registry import ScopedRegistry
from .diagnostics import Diagnostic

#: Cache key: (program fingerprint, selected codes, ignored codes).
CacheKey = tuple[str, tuple[str, ...], tuple[str, ...]]

#: Entries kept before least-recently-used eviction.
MAX_ENTRIES = 512

_entries: "OrderedDict[CacheKey, tuple[Diagnostic, ...]]" = OrderedDict()
_HITS = HOST.counter("host.diagnostics.hits")
_MISSES = HOST.counter("host.diagnostics.misses")
_EVICTIONS = HOST.counter("host.diagnostics.evictions")


def cache_get(key: CacheKey) -> "tuple[Diagnostic, ...] | None":
    """Cached diagnostics for ``key``, refreshing its recency."""
    cached = _entries.get(key)
    if cached is None:
        _MISSES.add()
        return None
    _entries.move_to_end(key)
    _HITS.add()
    return cached


def cache_put(key: CacheKey, diagnostics: "tuple[Diagnostic, ...]") -> None:
    """Store one analysis, evicting the least recently used beyond the bound."""
    _entries[key] = diagnostics
    _entries.move_to_end(key)
    while len(_entries) > MAX_ENTRIES:
        _entries.popitem(last=False)
        _EVICTIONS.add()


def cache_stats() -> ScopedRegistry:
    """The cache's live counts, the ``host.diagnostics`` scope.

    ``as_dict()`` gives ``hits``, ``misses`` and ``evictions``.
    """
    return HOST.scope("host.diagnostics")


def cache_size() -> int:
    """Number of cached analyses."""
    return len(_entries)


def clear_cache() -> None:
    """Drop every entry and zero the counts."""
    _entries.clear()
    cache_stats().zero()
