"""Lower access ranges to cacheline-granular event streams.

An expanded stream is a :class:`LineStream`: parallel numpy arrays of
absolute line addresses and per-transaction byte counts, in program order.
These streams drive the hardware-structure models: the remote write queue
sees store streams, the L2 sees read streams, TLB models see the page
projection of either.

Expansion is deterministic: RANDOM and REUSE patterns derive their RNG from
``pattern.seed`` (plus the range's position), so two expansions of the same
program produce byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CACHE_BLOCK
from ..errors import TraceError
from .records import AccessRange, PatternKind


@dataclass
class LineStream:
    """An ordered stream of line-granule transactions.

    ``lines`` are absolute cacheline numbers (byte address // 128);
    ``bytes_per_txn`` is the payload each transaction carries.
    """

    lines: np.ndarray  # int64, shape (n,)
    bytes_per_txn: np.ndarray  # int32, shape (n,)

    def __post_init__(self) -> None:
        if self.lines.shape != self.bytes_per_txn.shape:
            raise TraceError("line and byte arrays must be parallel")

    def __len__(self) -> int:
        return int(self.lines.shape[0])

    @property
    def total_bytes(self) -> int:
        """Payload bytes across the whole stream."""
        return int(self.bytes_per_txn.sum())

    @property
    def distinct_lines(self) -> int:
        """Number of distinct lines touched."""
        return int(np.unique(self.lines).shape[0])

    def pages(self, page_size: int) -> np.ndarray:
        """Distinct page numbers touched, as a sorted int64 array.

        Marks each touched page in an occupancy mask instead of sorting:
        O(n + span) time, where span is the number of pages from the lowest
        page touched to the highest, and one byte of memory per page in that
        span. An access never overruns its buffer, so the span of one
        access's stream is at most its buffer's page count.
        """
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        page_ids = self.lines // (page_size // CACHE_BLOCK)
        low = int(page_ids.min())
        mask = np.zeros(int(page_ids.max()) - low + 1, dtype=bool)
        page_ids -= low
        mask[page_ids] = True
        return np.flatnonzero(mask) + low

    @staticmethod
    def concat(streams: "list[LineStream]") -> "LineStream":
        """Concatenate streams in order; empty input gives an empty stream."""
        if not streams:
            return LineStream(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
            )
        return LineStream(
            np.concatenate([s.lines for s in streams]),
            np.concatenate([s.bytes_per_txn for s in streams]),
        )


def _expand_once(access: AccessRange, base_line: int, sweep: int) -> np.ndarray:
    """Line sequence for one sweep of the range. ``base_line`` is absolute."""
    pattern = access.pattern
    first = base_line + access.offset // CACHE_BLOCK
    count = max(1, -(-access.length // CACHE_BLOCK))

    if pattern.kind is PatternKind.SEQUENTIAL:
        lines = np.arange(first, first + count, dtype=np.int64)
    elif pattern.kind is PatternKind.STRIDED:
        lines = np.arange(first, first + count, pattern.stride, dtype=np.int64)
    elif pattern.kind is PatternKind.RANDOM:
        rng = np.random.default_rng((pattern.seed, sweep, first))
        n = max(1, int(count * pattern.touch_fraction))
        lines = rng.integers(first, first + count, size=n, dtype=np.int64)
        return lines  # touch_fraction already applied via n
    elif pattern.kind is PatternKind.REUSE:
        rng = np.random.default_rng((pattern.seed, sweep, first))
        n = max(1, int(count * pattern.touch_fraction))
        fresh = np.arange(first, first + count, dtype=np.int64)
        if n < count:
            fresh = fresh[rng.permutation(count)[:n]]
            fresh.sort()
        lines = _weave_revisits(rng, fresh, pattern.revisit_prob, pattern.revisit_window)
        return lines
    else:  # pragma: no cover - enum is closed
        raise TraceError(f"unknown pattern kind {pattern.kind}")

    if pattern.touch_fraction < 1.0:
        rng = np.random.default_rng((pattern.seed, sweep, first))
        n = max(1, int(lines.shape[0] * pattern.touch_fraction))
        keep = np.sort(rng.permutation(lines.shape[0])[:n])
        lines = lines[keep]
    return lines


def _weave_revisits(
    rng: np.random.Generator, fresh: np.ndarray, revisit_prob: float, window: int
) -> np.ndarray:
    """Interleave revisits to recently used lines into a fresh-line walk.

    The output stream has ``len(fresh) / (1 - p)`` events (approximately):
    each event is, with probability ``p``, a revisit to one of the last
    ``window`` distinct lines, else the next fresh line. Revisit distance is
    what the remote write queue's hit rate measures, so this knob directly
    shapes the Figure 14 curves.
    """
    if revisit_prob <= 0.0 or fresh.shape[0] == 0:
        return fresh
    n_fresh = fresh.shape[0]
    total = int(n_fresh / (1.0 - revisit_prob)) + 1
    is_revisit = rng.random(total) < revisit_prob
    # indices into fresh[] for each event position
    fresh_idx = np.cumsum(~is_revisit) - 1
    fresh_idx = np.clip(fresh_idx, 0, n_fresh - 1)
    # revisit targets: a uniformly random recent line within the window
    back = rng.integers(1, window + 1, size=total)
    revisit_idx = np.clip(fresh_idx - back, 0, n_fresh - 1)
    idx = np.where(is_revisit, revisit_idx, fresh_idx)
    # trim trailing events past the last fresh line
    last_needed = np.nonzero(~is_revisit)[0]
    if last_needed.shape[0] >= n_fresh:
        idx = idx[: last_needed[n_fresh - 1] + 1]
    return fresh[idx]


def expand_range(access: AccessRange, buffer_base: int, max_events: int = 2_000_000) -> LineStream:
    """Expand one access range into a :class:`LineStream`.

    ``buffer_base`` is the buffer's absolute start address (line-aligned by
    the address space's page alignment). All ``repeat`` sweeps are
    concatenated in order. ``max_events`` is a safety valve against
    accidentally exploding a huge range; exceeding it raises rather than
    silently truncating.
    """
    if buffer_base % CACHE_BLOCK != 0:
        raise TraceError(f"buffer base {buffer_base:#x} not line-aligned")
    base_line = buffer_base // CACHE_BLOCK
    sweeps = [_expand_once(access, base_line, sweep) for sweep in range(access.repeat)]
    lines = np.concatenate(sweeps) if len(sweeps) > 1 else sweeps[0]
    if lines.shape[0] > max_events:
        raise TraceError(
            f"access range over {access.buffer!r} expands to {lines.shape[0]} events "
            f"(cap {max_events}); shrink the workload scale"
        )
    txn_bytes = np.full(lines.shape[0], access.pattern.bytes_per_txn, dtype=np.int32)
    return LineStream(lines, txn_bytes)


def touched_lines(access: AccessRange, buffer_base: int) -> np.ndarray:
    """Distinct absolute lines one sweep of the range touches, sorted."""
    stream = _expand_once(access, buffer_base // CACHE_BLOCK, sweep=0)
    return np.unique(stream)


def touched_pages(access: AccessRange, buffer_base: int, page_size: int) -> np.ndarray:
    """Distinct absolute page numbers the range touches, sorted."""
    lines_per_page = page_size // CACHE_BLOCK
    return np.unique(touched_lines(access, buffer_base) // lines_per_page)
