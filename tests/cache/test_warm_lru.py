"""The numpy warm-L2 kernel against the two-pass scalar ``Cache`` walk."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import warm_lru
from repro.cache.cache import Cache, set_count
from repro.cache.warm_lru import warm_lru_hits
from repro.errors import ConfigError

BLOCK = 128


def reference_hits(lines, num_sets: int, assoc: int) -> int:
    """Second-pass hits of two ``simulate_stream`` passes through a fresh cache."""
    cache = Cache(num_sets * assoc * BLOCK, BLOCK, assoc)
    cache.simulate_stream(lines)
    return cache.simulate_stream(lines).hits


def kernel_hits(lines, num_sets: int, assoc: int) -> int:
    """Kernel hits, checked equal with and without the scalar tail."""
    lines = np.asarray(lines, dtype=np.int64)
    hits = warm_lru_hits(lines, num_sets, assoc)
    with mock.patch.object(warm_lru, "SCALAR_TAIL_SETS", 0):
        assert warm_lru_hits(lines, num_sets, assoc) == hits
    return hits


@st.composite
def geometries(draw):
    return draw(st.integers(1, 64)), draw(st.integers(1, 16))


@st.composite
def random_streams(draw):
    num_sets, assoc = draw(geometries())
    # Span from "fits in the cache" to "several times its capacity".
    span = draw(st.integers(1, 4 * num_sets * assoc + 1))
    lines = draw(st.lists(st.integers(0, span - 1), max_size=600))
    return lines, num_sets, assoc


@st.composite
def duplicate_heavy_streams(draw):
    num_sets, assoc = draw(geometries())
    pool = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=3 * assoc + 2))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(picks), max_size=len(picks)))
    lines = [pool[i] for i, r in zip(picks, repeats) for _ in range(r)]
    return lines, num_sets, assoc


@st.composite
def one_set_streams(draw):
    num_sets, assoc = draw(geometries())
    target = draw(st.integers(0, num_sets - 1))
    tags = draw(st.lists(st.integers(0, 3 * assoc), max_size=400))
    return [t * num_sets + target for t in tags], num_sets, assoc


class TestMatchesScalarWalk:
    @given(case=random_streams())
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, case):
        lines, num_sets, assoc = case
        assert kernel_hits(lines, num_sets, assoc) == reference_hits(lines, num_sets, assoc)

    @given(case=duplicate_heavy_streams())
    @settings(max_examples=150, deadline=None)
    def test_duplicate_heavy_streams(self, case):
        lines, num_sets, assoc = case
        assert kernel_hits(lines, num_sets, assoc) == reference_hits(lines, num_sets, assoc)

    @given(case=one_set_streams())
    @settings(max_examples=150, deadline=None)
    def test_streams_confined_to_one_set(self, case):
        lines, num_sets, assoc = case
        assert kernel_hits(lines, num_sets, assoc) == reference_hits(lines, num_sets, assoc)

    @given(case=random_streams())
    @settings(max_examples=60, deadline=None)
    def test_single_set_cache(self, case):
        lines, _, assoc = case
        assert kernel_hits(lines, 1, assoc) == reference_hits(lines, 1, assoc)

    @pytest.mark.parametrize("num_sets,assoc", [(1, 1), (4, 16), (64, 1)])
    def test_empty_stream(self, num_sets, assoc):
        empty = np.empty(0, dtype=np.int64)
        assert kernel_hits(empty, num_sets, assoc) == 0 == reference_hits(empty, num_sets, assoc)

    def test_skewed_l2_shaped_stream(self):
        # GV100 L2 geometry; a few hot sets hold far more than assoc lines
        # while most sets fit, as real kernel read streams do.
        num_sets, assoc = set_count(6 * 2**20, BLOCK, 16), 16
        rng = np.random.default_rng(3)
        fitting = rng.integers(0, 8 * num_sets, size=20_000)
        hot = rng.integers(0, 60, size=20_000) * num_sets + rng.integers(0, 40, size=20_000)
        lines = np.concatenate([fitting, hot])
        rng.shuffle(lines)
        assert kernel_hits(lines, num_sets, assoc) == reference_hits(lines, num_sets, assoc)


class TestIndexTypes:
    def test_each_type_follows_its_bound(self):
        assert warm_lru._index_dtype(3072) is np.int16
        assert warm_lru._index_dtype(2**15 - 1) is np.int16
        assert warm_lru._index_dtype(2**15) is np.int32
        assert warm_lru._index_dtype(2**31) is np.int64

    def test_set_indices_wider_than_int16(self):
        # Every access lands in a set above int16's range, so set indices
        # and slots widen to int32 while positions stay int32.
        num_sets, assoc = 40_000, 2
        rng = np.random.default_rng(7)
        lines = rng.integers(32_768, num_sets, size=40_000) + num_sets * rng.integers(0, 4, size=40_000)
        assert kernel_hits(lines, num_sets, assoc) == reference_hits(lines, num_sets, assoc)


class TestWorkingMemory:
    def test_skewed_stream_builds_no_padded_matrix(self):
        # One set with 20 000 accesses and 3071 sets with 20 each: a padded
        # (sets x longest sequence) int64 matrix would need ~490 MB.
        num_sets, assoc = 3072, 16
        rng = np.random.default_rng(5)
        long_set = rng.integers(0, 64, size=20_000) * num_sets
        short_sets = np.repeat(np.arange(1, num_sets), 20) + num_sets * rng.integers(
            0, 64, size=20 * (num_sets - 1)
        )
        lines = np.concatenate([long_set, short_sets])
        tracemalloc.start()
        try:
            warm_lru_hits(lines, num_sets, assoc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * lines.nbytes


class TestGeometry:
    def test_set_count_matches_cache(self):
        assert set_count(6 * 2**20, BLOCK, 16) == Cache(6 * 2**20, BLOCK, 16).num_sets

    def test_set_count_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            set_count(BLOCK * 10, BLOCK, 4)
