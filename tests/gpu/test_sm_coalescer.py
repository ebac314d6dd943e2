"""Unit tests for the intra-SM coalescer."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.sm_coalescer import CoalescerStats, sm_coalesce
from repro.trace.expand import LineStream


def stream(lines, payload=32):
    lines = np.asarray(lines, dtype=np.int64)
    return LineStream(lines, np.full(len(lines), payload, dtype=np.int32))


class TestSMCoalesce:
    def test_empty(self):
        assert len(sm_coalesce(stream([]))) == 0

    def test_adjacent_duplicates_merge(self):
        out = sm_coalesce(stream([5, 5, 5, 6]))
        assert out.lines.tolist() == [5, 6]

    def test_payload_sums_capped_at_line(self):
        out = sm_coalesce(stream([5] * 10, payload=32))
        assert out.bytes_per_txn.tolist() == [128]  # 320 capped at 128

    def test_payload_sums_below_cap(self):
        out = sm_coalesce(stream([5, 5], payload=32))
        assert out.bytes_per_txn.tolist() == [64]

    def test_non_adjacent_duplicates_not_merged(self):
        # The SM coalescer only sees a warp window; temporally distant
        # revisits survive to the remote write queue.
        out = sm_coalesce(stream([5, 6, 5]))
        assert out.lines.tolist() == [5, 6, 5]

    def test_sequential_stream_unchanged(self):
        out = sm_coalesce(stream([1, 2, 3, 4]))
        assert out.lines.tolist() == [1, 2, 3, 4]

    def test_total_payload_preserved_when_uncapped(self):
        before = stream([1, 1, 2, 2, 3], payload=16)
        after = sm_coalesce(before)
        assert after.total_bytes == before.total_bytes


def reference_coalesce(lines, payloads):
    """Plain loop: merge adjacent equal lines, sum payloads, cap at 128."""
    out_lines, out_bytes = [], []
    for line, nbytes in zip(lines, payloads):
        if out_lines and out_lines[-1] == line:
            out_bytes[-1] += nbytes
        else:
            out_lines.append(line)
            out_bytes.append(nbytes)
    return out_lines, [min(total, 128) for total in out_bytes]


@st.composite
def run_streams(draw):
    """Streams of runs: random lines, run lengths 1..300, payloads 1..128."""
    runs = draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 300)), max_size=40,
    ))
    lines = [line for line, length in runs for _ in range(length)]
    payloads = draw(st.lists(
        st.integers(1, 128), min_size=len(lines), max_size=len(lines),
    ))
    return lines, payloads


class TestAgainstLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(run_streams())
    @example(([], []))
    def test_matches_reference(self, case):
        lines, payloads = case
        stats = CoalescerStats()
        out = sm_coalesce(
            LineStream(np.array(lines, dtype=np.int64), np.array(payloads, dtype=np.int32)),
            stats,
        )
        ref_lines, ref_bytes = reference_coalesce(lines, payloads)
        assert out.lines.tolist() == ref_lines
        assert out.bytes_per_txn.tolist() == ref_bytes
        assert out.bytes_per_txn.dtype == np.int32
        assert (stats.txns_in, stats.txns_out) == (len(lines), len(ref_lines))
