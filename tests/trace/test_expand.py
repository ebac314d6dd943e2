"""Unit tests for trace expansion."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.expand import LineStream, expand_range, touched_lines, touched_pages
from repro.trace.records import AccessRange, MemOp, PatternKind, PatternSpec

BASE = 1 << 20  # line-aligned buffer base


def access(kind=PatternKind.SEQUENTIAL, length=128 * 64, **pattern_kw):
    spec = PatternSpec(kind, **pattern_kw)
    return AccessRange("b", 0, length, MemOp.WRITE, spec)


class TestSequential:
    def test_one_event_per_line(self):
        stream = expand_range(access(), BASE)
        assert len(stream) == 64
        assert stream.lines[0] == BASE // 128
        assert np.all(np.diff(stream.lines) == 1)

    def test_partial_last_line_rounds_up(self):
        stream = expand_range(access(length=200), BASE)
        assert len(stream) == 2

    def test_offset_respected(self):
        spec = AccessRange("b", 256, 128, MemOp.READ)
        stream = expand_range(spec, BASE)
        assert stream.lines[0] == BASE // 128 + 2

    def test_repeat_concatenates(self):
        spec = AccessRange("b", 0, 128 * 8, MemOp.READ, repeat=3)
        stream = expand_range(spec, BASE)
        assert len(stream) == 24

    def test_unaligned_base_rejected(self):
        with pytest.raises(TraceError):
            expand_range(access(), BASE + 1)

    def test_max_events_guard(self):
        with pytest.raises(TraceError):
            expand_range(access(length=128 * 100), BASE, max_events=10)


class TestStrided:
    def test_stride_skips_lines(self):
        stream = expand_range(access(PatternKind.STRIDED, stride=4), BASE)
        assert len(stream) == 16
        assert np.all(np.diff(stream.lines) == 4)


class TestRandom:
    def test_within_bounds(self):
        stream = expand_range(access(PatternKind.RANDOM), BASE)
        first = BASE // 128
        assert stream.lines.min() >= first
        assert stream.lines.max() < first + 64

    def test_touch_fraction_scales_events(self):
        dense = expand_range(access(PatternKind.RANDOM), BASE)
        sparse = expand_range(access(PatternKind.RANDOM, touch_fraction=0.25), BASE)
        assert len(sparse) == len(dense) // 4

    def test_deterministic_by_seed(self):
        a = expand_range(access(PatternKind.RANDOM, seed=5), BASE)
        b = expand_range(access(PatternKind.RANDOM, seed=5), BASE)
        assert np.array_equal(a.lines, b.lines)

    def test_different_seeds_differ(self):
        a = expand_range(access(PatternKind.RANDOM, seed=5), BASE)
        b = expand_range(access(PatternKind.RANDOM, seed=6), BASE)
        assert not np.array_equal(a.lines, b.lines)


class TestReuse:
    def test_stream_longer_than_fresh_walk(self):
        fresh = expand_range(access(), BASE)
        reuse = expand_range(
            access(PatternKind.REUSE, revisit_prob=0.4, revisit_window=8), BASE
        )
        assert len(reuse) > len(fresh)

    def test_revisits_hit_recent_lines(self):
        stream = expand_range(
            access(PatternKind.REUSE, length=128 * 512, revisit_prob=0.3, revisit_window=16),
            BASE,
        )
        # Count events that repeat an earlier line; should be near 30%.
        seen = set()
        revisits = 0
        for line in stream.lines.tolist():
            if line in seen:
                revisits += 1
            seen.add(line)
        assert 0.2 < revisits / len(stream) < 0.4

    def test_zero_revisit_prob_is_fresh_walk(self):
        stream = expand_range(
            access(PatternKind.REUSE, revisit_prob=0.0), BASE
        )
        assert len(stream) == 64


class TestLineStream:
    def test_total_bytes(self):
        stream = expand_range(access(), BASE)
        assert stream.total_bytes == 64 * 128

    def test_distinct_lines(self):
        stream = LineStream(
            np.array([1, 1, 2], dtype=np.int64), np.array([128] * 3, dtype=np.int32)
        )
        assert stream.distinct_lines == 2

    def test_pages(self):
        stream = expand_range(access(length=65536 * 2), BASE)
        pages = stream.pages(65536)
        assert len(pages) == 2

    @pytest.mark.parametrize("page_size", [4096, 65536, 2 * 1024 * 1024])
    @pytest.mark.parametrize("repeat", [1, 3])
    @pytest.mark.parametrize("touch_fraction", [1.0, 0.3])
    @pytest.mark.parametrize(
        "pattern_kw",
        [
            {"kind": PatternKind.SEQUENTIAL},
            {"kind": PatternKind.STRIDED, "stride": 5},
            {"kind": PatternKind.RANDOM, "seed": 3},
            {"kind": PatternKind.REUSE, "revisit_prob": 0.3, "seed": 7},
        ],
        ids=lambda kw: kw["kind"].name,
    )
    def test_pages_match_unique(self, pattern_kw, touch_fraction, repeat, page_size):
        spec = PatternSpec(touch_fraction=touch_fraction, **pattern_kw)
        rng = AccessRange("b", 3 * 128, 128 * 1500, MemOp.WRITE, spec, repeat=repeat)
        stream = expand_range(rng, BASE)
        pages = stream.pages(page_size)
        assert pages.dtype == np.int64
        assert np.all(np.diff(pages) > 0)
        np.testing.assert_array_equal(pages, np.unique(stream.lines // (page_size // 128)))

    def test_pages_of_empty_stream(self):
        pages = LineStream.concat([]).pages(65536)
        assert pages.dtype == np.int64
        assert pages.shape == (0,)

    def test_concat(self):
        a = expand_range(access(), BASE)
        combined = LineStream.concat([a, a])
        assert len(combined) == 2 * len(a)

    def test_concat_empty(self):
        assert len(LineStream.concat([])) == 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TraceError):
            LineStream(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int32))


class TestHelpers:
    def test_touched_lines_unique_sorted(self):
        lines = touched_lines(access(PatternKind.RANDOM), BASE)
        assert np.all(np.diff(lines) > 0)

    def test_touched_pages(self):
        pages = touched_pages(access(length=65536 * 3), BASE, 65536)
        assert len(pages) == 3
