"""The intra-SM memory coalescer.

A warp's 32 lane accesses to consecutive addresses reach the memory system
as one transaction per 128 B line. In trace terms: *adjacent* identical
lines in a stream merge into a single transaction with summed payload
(capped at the line size). This stage runs before the GPS remote write
queue, which is why dense sequential writers (Jacobi) arrive at the queue
with no residual spatial locality and show a 0% queue hit rate (Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import CACHE_BLOCK
from ..trace.expand import LineStream


@dataclass
class CoalescerStats:
    """Transaction accounting for the SM coalescer stage."""

    txns_in: int = 0
    txns_out: int = 0

    @property
    def merged(self) -> int:
        """Transactions absorbed into an adjacent one."""
        return self.txns_in - self.txns_out

    @property
    def merge_rate(self) -> float:
        """Fraction of incoming transactions absorbed; 0.0 on an empty stream."""
        if self.txns_in == 0:
            return 0.0
        return self.merged / self.txns_in

    def as_counters(self) -> dict:
        """Observability snapshot: ``metric: value`` for the counter registry."""
        return {"txns_in": self.txns_in, "txns_out": self.txns_out, "merged": self.merged}


def sm_coalesce(stream: LineStream, stats: Optional[CoalescerStats] = None) -> LineStream:
    """Collapse runs of identical adjacent lines into single transactions.

    ``stats``, when given, accumulates in/out transaction counts across
    calls (the program analysis keeps one per kernel).
    """
    if len(stream) == 0:
        return stream
    lines = stream.lines
    boundaries = np.empty(lines.shape[0], dtype=bool)
    boundaries[0] = True
    np.not_equal(lines[1:], lines[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    # Runs are contiguous and ``starts`` rises strictly from 0, so one
    # segment sum per run is exactly the per-run payload total.
    summed = np.add.reduceat(stream.bytes_per_txn, starts, dtype=np.int64)
    if stats is not None:
        stats.txns_in += int(lines.shape[0])
        stats.txns_out += int(starts.shape[0])
    return LineStream(
        lines[starts],
        np.minimum(summed, CACHE_BLOCK).astype(np.int32),
    )
