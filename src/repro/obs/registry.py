"""The hierarchical counter/gauge registry.

Naming convention: dot-separated ``component.metric`` (``gps_tlb.misses``,
``write_queue.bytes_out``, ``link.egress0.bytes``). Per-GPU instances live
under a ``gpuN`` scope (``gpu0.gps_tlb.misses``); the snapshot
(:meth:`CounterRegistry.as_dict`) *rolls up* those scopes into system-wide
totals automatically, so every per-GPU metric also appears aggregated under
its bare ``component.metric`` name.

Hardware models publish in one of two ways:

* imperative — the executor calls ``registry.add("dram.read_bytes", n)`` on
  a hot path (a plain dict increment; cheap enough to stay always-on);
* providers — a model registers a callable returning its counter dict
  (``scope.provide("gps_tlb", unit.tlb.counters)``); providers are resolved
  once, at snapshot time, so models keep owning their own stats objects.
"""

from __future__ import annotations

import bisect
import os
import re
import threading
from typing import Callable, Sequence, Union

Number = Union[int, float]

_GPU_SCOPE = re.compile(r"^gpu\d+\.")


class Counter:
    """A named, monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (default 1)."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


_SHARED_LOCK = threading.Lock()


def _new_shared_lock() -> None:
    # A forked child starts with this lock free, whichever parent thread
    # held it at the fork.
    global _SHARED_LOCK
    _SHARED_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_shared_lock)


class SharedCounter(Counter):
    """A counter several threads add to: each add holds one process-wide lock."""

    __slots__ = ()

    def add(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (default 1), exactly under concurrent adds."""
        with _SHARED_LOCK:
            self.value += amount


#: Default histogram bucket bounds: latencies in seconds from 1 ms to 1 min.
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)


def _fmt_bound(bound: Number) -> str:
    """Compact bucket-bound label (``0.005`` -> ``"0.005"``, ``5.0`` -> ``"5"``)."""
    return format(bound, "g")


class Histogram:
    """A fixed-bucket histogram with cumulative (Prometheus ``le``) counts.

    Observations land in the first bucket whose upper bound is >= the value;
    everything above the last bound lands in the implicit ``inf`` bucket.
    The snapshot flattens to plain counters (``count``, ``sum``,
    ``le_<bound>`` per bucket) so a histogram costs nothing new in the
    registry's export formats.
    """

    __slots__ = ("name", "bounds", "_bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: "Sequence[Number]" = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self.name = name
        self.bounds: "tuple[Number, ...]" = tuple(bounds)
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self._bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def snapshot(self) -> "dict[str, Number]":
        """Cumulative bucket counts plus ``count``/``sum``, flat and JSON-safe."""
        flat: "dict[str, Number]" = {"count": self.count, "sum": self.sum}
        running = 0
        for bound, bucket in zip(self.bounds, self._bucket_counts):
            running += bucket
            flat[f"le_{_fmt_bound(bound)}"] = running
        flat["le_inf"] = self.count
        return flat

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class CounterRegistry:
    """Flat store of counters, gauges, and lazy providers with scope roll-up.

    All names share one namespace; :meth:`scope` returns a view that
    prefixes names (``registry.scope("gpu0").add("gps_tlb.misses", 1)``
    lands on ``gpu0.gps_tlb.misses``). On snapshot, any name under a
    ``gpuN.`` scope also contributes to an aggregate entry with the scope
    stripped, unless that aggregate name was registered explicitly.

    ``counter`` is the class of every counter made here: a registry that
    several threads write, such as :data:`repro.obs.host.HOST`, passes
    :class:`SharedCounter`.
    """

    def __init__(self, counter: "type[Counter]" = Counter) -> None:
        self._counter_type = counter
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Number] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: list[tuple[str, Callable[[], "dict[str, Number]"]]] = []

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            # setdefault: two threads creating one name share one counter.
            counter = self._counters.setdefault(name, self._counter_type(name))
        return counter

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment the named counter, creating it on first use."""
        self.counter(name).add(amount)

    def gauge(self, name: str, value: Number) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def histogram(self, name: str, bounds: "Sequence[Number] | None" = None) -> Histogram:
        """Get or create the named histogram.

        ``bounds`` applies on first creation only; the snapshot merges the
        histogram's flattened buckets under ``<name>.``.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, DEFAULT_BUCKETS if bounds is None else bounds
            )
        return histogram

    def provide(self, prefix: str, fn: Callable[[], "dict[str, Number]"]) -> None:
        """Register a lazy provider; its dict is merged under ``prefix.``."""
        self._providers.append((prefix, fn))

    def scope(self, prefix: str) -> "ScopedRegistry":
        """A view of this registry with every name prefixed by ``prefix.``."""
        return ScopedRegistry(self, prefix)

    def zero(self, prefix: str = "") -> None:
        """Zero every counter named ``prefix...`` in place.

        The counters stay registered, so handles bound to them keep counting.
        """
        for name, counter in list(self._counters.items()):
            if name.startswith(prefix):
                counter.value = 0

    def as_dict(self) -> "dict[str, Number]":
        """Snapshot: counters, gauges, resolved providers, plus roll-ups.

        Sorted by name. Collisions resolve last-writer-wins in the order
        counters -> gauges -> providers; roll-ups never overwrite an
        explicitly registered aggregate.
        """
        flat: dict[str, Number] = {}
        # A copy: another thread may register a counter mid-snapshot.
        for name, counter in list(self._counters.items()):
            flat[name] = counter.value
        flat.update(self._gauges)
        for name, histogram in self._histograms.items():
            for key, value in histogram.snapshot().items():
                flat[f"{name}.{key}"] = value
        for prefix, fn in self._providers:
            for key, value in fn().items():
                flat[f"{prefix}.{key}"] = value
        rollups: dict[str, Number] = {}
        for name, value in flat.items():
            if _GPU_SCOPE.match(name):
                base = name.split(".", 1)[1]
                if base not in flat:
                    rollups[base] = rollups.get(base, 0) + value
        flat.update(rollups)
        return dict(sorted(flat.items()))


class ScopedRegistry:
    """A prefixing view over a :class:`CounterRegistry` (shares its store)."""

    def __init__(self, parent: CounterRegistry, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str) -> Counter:
        """Get or create ``<prefix>.<name>`` in the parent registry."""
        return self._parent.counter(self._name(name))

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment ``<prefix>.<name>``."""
        self._parent.add(self._name(name), amount)

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``<prefix>.<name>``."""
        self._parent.gauge(self._name(name), value)

    def histogram(self, name: str, bounds: "Sequence[Number] | None" = None) -> Histogram:
        """Get or create histogram ``<prefix>.<name>``."""
        return self._parent.histogram(self._name(name), bounds)

    def provide(self, prefix: str, fn: Callable[[], "dict[str, Number]"]) -> None:
        """Register a provider under ``<prefix>.<sub-prefix>.``."""
        self._parent.provide(self._name(prefix), fn)

    def scope(self, prefix: str) -> "ScopedRegistry":
        """A deeper scope."""
        return ScopedRegistry(self._parent, self._name(prefix))

    def zero(self) -> None:
        """Zero every counter under this scope in place."""
        self._parent.zero(self._name(""))

    def as_dict(self) -> "dict[str, Number]":
        """This scope's part of the parent's snapshot, names without the prefix."""
        head = self._name("")
        return {
            name[len(head):]: value
            for name, value in self._parent.as_dict().items()
            if name.startswith(head)
        }

    # The benchmark reads the analyzer's counts under this name.
    to_dict = as_dict
