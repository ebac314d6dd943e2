"""Analysis-result cache and the deterministic-ordering contract."""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_program,
    cache_size,
    cache_stats,
    clear_cache,
    sort_diagnostics,
    sort_key,
)
from repro.trace.program import Phase
from repro.trace.records import MemOp

from .conftest import PAGE, access, kernel, program, setup_phase


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def make_program(name="cachy", length=PAGE):
    return program([
        setup_phase(),
        Phase("it0", (
            kernel("r", 0, access(length=length, op=MemOp.READ)),
            kernel("r1", 1, access(offset=PAGE, length=PAGE, op=MemOp.READ)),
        ), iteration=0),
    ], name=name)


class TestAnalysisCache:
    def test_second_analysis_hits(self):
        p = make_program()
        analyze_program(p)
        before = cache_stats().hits
        analyze_program(p)
        assert cache_stats().hits == before + 1

    def test_equal_programs_share_an_entry(self):
        """The key is the fingerprint, not object identity."""
        analyze_program(make_program())
        analyze_program(make_program())
        assert cache_size() == 1
        assert cache_stats().hits == 1

    def test_different_select_is_a_different_entry(self):
        p = make_program()
        analyze_program(p)
        analyze_program(p, select=["GPS1"])
        assert cache_size() == 2

    def test_cached_results_equal_cold_results(self):
        p = make_program()
        warm = analyze_program(p)
        cached = analyze_program(p)
        cold = analyze_program(p, use_cache=False)
        assert warm == cached == cold

    def test_cached_list_is_a_copy(self):
        p = make_program()
        first = analyze_program(p)
        first.clear()
        assert analyze_program(p) != []

    def test_use_cache_false_skips_the_cache(self):
        p = make_program()
        analyze_program(p, use_cache=False)
        assert cache_size() == 0

    def test_eviction_is_bounded(self):
        from repro.analysis.cache import MAX_ENTRIES

        for i in range(MAX_ENTRIES + 5):
            analyze_program(make_program(name=f"p{i}", length=128 + i * 128))
        assert cache_size() == MAX_ENTRIES
        assert cache_stats().evictions == 5


class TestDeterministicOrdering:
    def test_analysis_order_is_reproducible(self, broken_program):
        a = analyze_program(broken_program, use_cache=False)
        b = analyze_program(broken_program, use_cache=False)
        assert [d.to_dict() for d in a] == [d.to_dict() for d in b]

    def test_diagnostics_come_back_sorted(self, broken_program):
        diagnostics = analyze_program(broken_program)
        assert [sort_key(d) for d in diagnostics] == sorted(
            sort_key(d) for d in diagnostics
        )

    def test_sort_is_location_major(self, broken_program):
        """Same-site findings group together regardless of rule registry order."""
        diagnostics = analyze_program(broken_program)
        shuffled = list(reversed(diagnostics))
        assert sort_diagnostics(shuffled) == diagnostics

    def test_renderings_are_byte_stable(self, broken_program):
        from repro.analysis import render_json, render_sarif, render_text

        diagnostics = analyze_program(broken_program)
        for render in (render_text, render_json, render_sarif):
            assert render(broken_program, diagnostics) == \
                render(broken_program, list(diagnostics))
