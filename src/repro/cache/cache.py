"""Set-associative cache with line-address stream simulation.

The cache operates on *line addresses* (byte address divided by the block
size happens at the caller) so that workload trace expansion, which already
produces line-granular numpy streams, feeds it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Type

import numpy as np

from ..errors import ConfigError
from ..units import is_power_of_two
from .replacement import LRUPolicy, ReplacementPolicy


@dataclass
class CacheStats:
    """Aggregate hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total line accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction; 0.0 with no accesses."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Sum two stat blocks."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


def set_count(size_bytes: int, block_size: int, assoc: int) -> int:
    """Number of sets of a cache geometry; raises ``ConfigError`` if invalid."""
    if size_bytes <= 0 or block_size <= 0 or assoc <= 0:
        raise ConfigError("cache geometry values must be positive")
    if not is_power_of_two(block_size):
        raise ConfigError(f"block size must be a power of two, got {block_size}")
    num_lines = size_bytes // block_size
    if num_lines == 0 or num_lines % assoc != 0:
        raise ConfigError(
            f"cache of {size_bytes} B / {block_size} B lines does not divide "
            f"into associativity {assoc}"
        )
    return num_lines // assoc


class Cache:
    """A set-associative cache indexed by line address.

    ``size_bytes`` and ``block_size`` fix the line count; the set index is
    ``line % num_sets``. Only tags are stored — this is a hit/miss model,
    not a data store.
    """

    def __init__(
        self,
        size_bytes: int,
        block_size: int,
        assoc: int,
        policy_factory: Callable[[int], ReplacementPolicy] = LRUPolicy,
    ) -> None:
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = set_count(size_bytes, block_size, assoc)
        self._sets = [policy_factory(assoc) for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, line: int) -> bool:
        """Access one line address; fill on miss. Returns True on a hit."""
        cache_set = self._sets[line % self.num_sets]
        if cache_set.touch(line):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if cache_set.fill(line) is not None:
            self.stats.evictions += 1
        return False

    def simulate_stream(self, lines: Iterable[int]) -> CacheStats:
        """Run a whole access stream; returns the stats delta for the stream.

        Accepts any iterable of line addresses, including numpy arrays from
        :mod:`repro.trace.expand`.
        """
        before = CacheStats(self.stats.hits, self.stats.misses, self.stats.evictions)
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()  # plain ints are ~2x faster in the hot loop
        sets = self._sets
        num_sets = self.num_sets
        hits = 0
        misses = 0
        evictions = 0
        for line in lines:
            cache_set = sets[line % num_sets]
            if cache_set.touch(line):
                hits += 1
            else:
                misses += 1
                if cache_set.fill(line) is not None:
                    evictions += 1
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        return CacheStats(
            hits=self.stats.hits - before.hits,
            misses=self.stats.misses - before.misses,
            evictions=self.stats.evictions - before.evictions,
        )

    def invalidate(self, line: int) -> bool:
        """Drop one line if resident."""
        return self._sets[line % self.num_sets].invalidate(line)

    def flush(self) -> None:
        """Rebuild every set empty (e.g. between independent simulations)."""
        factory: Type[ReplacementPolicy] = type(self._sets[0])
        self._sets = [factory(self.assoc) for _ in range(self.num_sets)]

    def resident_lines(self) -> int:
        """Total lines currently resident across all sets."""
        return sum(len(s) for s in self._sets)
