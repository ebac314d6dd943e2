"""The GPS window memo across jobs: warm grids equal cold jobs, byte for byte.

Every config of one program shares its :class:`ProgramAnalysis`, and with it
the content-keyed write-queue window memo. A sweep over write-queue sizes,
GPS-TLB sizes and GPS variants run warm in one process must produce the
same payload for each job as that job run alone from a cold process.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro
from repro.paradigms import PARADIGMS
from repro.system.analysis import clear_analysis_cache, get_analysis
from repro.verify import canonical_payload
from tests.conftest import build, memo_lookups, memo_lookups_since

VARIANTS = ("gps", "gps_nosub", "gps_nocoalesce")
WRITE_QUEUES = (16, 128)
GPS_TLBS = (8, 32)


def config_for(write_queue: int, gps_tlb: int):
    base = repro.default_system(4)
    gps = dataclasses.replace(
        base.gps, write_queue_entries=write_queue, gps_tlb_entries=gps_tlb
    )
    return dataclasses.replace(base, gps=gps)


def run(program, paradigm: str, config) -> str:
    return canonical_payload(PARADIGMS[paradigm](program, config).run())


@pytest.fixture(autouse=True)
def _cold_analysis():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


def run_eager(program, paradigm: str, config) -> str:
    """The same job with the window memo detached: every window replays."""
    executor = PARADIGMS[paradigm](program, config)
    for unit in executor.runtime.gps_units:
        unit.window_memo = None
    return canonical_payload(executor.run())


@pytest.mark.parametrize("workload", ["jacobi", "hit"])
def test_shuffled_warm_grid_matches_cold_jobs(workload):
    # At scale 0.1 both programs produce subscription-masked windows, and a
    # third iteration stores again, masked, to ranges the unprofiled
    # iteration stored to unmasked.
    program = build(workload, scale=0.1, iterations=3)
    grid = [
        (paradigm, write_queue, gps_tlb)
        for paradigm in VARIANTS
        for write_queue in WRITE_QUEUES
        for gps_tlb in GPS_TLBS
    ]
    random.Random(workload).shuffle(grid)
    start = memo_lookups()
    warm = {job: run(program, job[0], config_for(*job[1:])) for job in grid}
    memo = get_analysis(program, config_for(*WRITE_QUEUES[:1], *GPS_TLBS[:1])).window_memo
    # Each distinct window replays once; everything else is a hit.
    misses, hits = memo_lookups_since(start)
    assert misses == len(memo)
    assert hits > 0
    for job in grid:
        clear_analysis_cache()
        cold = run(program, job[0], config_for(*job[1:]))
        assert warm[job] == cold, job
        assert cold == run_eager(program, job[0], config_for(*job[1:])), job


def memo_delta(program, paradigm: str, config) -> "tuple[int, int]":
    """``(misses, hits)`` one job adds to its program's window memo."""
    start = memo_lookups()
    run(program, paradigm, config)
    return memo_lookups_since(start)


def test_gps_tlb_size_never_misses():
    program = build("jacobi", scale=0.05, iterations=2)
    run(program, "gps", config_for(64, 8))
    misses, hits = memo_delta(program, "gps", config_for(64, 32))
    assert misses == 0
    assert hits > 0


def test_coalescing_off_misses():
    # Jacobi's stores are plain weak stores: with coalescing off every
    # stream is forwarded as atomic, so no window is shared with gps_nosub.
    program = build("jacobi", scale=0.05, iterations=2)
    config = config_for(64, 32)
    cold = memo_delta(program, "gps_nocoalesce", config)
    clear_analysis_cache()
    run(program, "gps_nosub", config)
    assert memo_delta(program, "gps_nocoalesce", config) == cold


def test_subscription_filter_mask_misses():
    # gps_nosub forwards every stream unfiltered. gps shares the unprofiled
    # iteration's windows with it, then filters by its trimmed subscriber
    # sets, and those masked windows are new content (at this scale some
    # halo stores land on pages that lost all but one subscriber).
    program = build("jacobi", scale=0.1, iterations=2)
    config = config_for(64, 32)
    cold_misses, cold_hits = memo_delta(program, "gps", config)
    clear_analysis_cache()
    run(program, "gps_nosub", config)
    warm_misses, warm_hits = memo_delta(program, "gps", config)
    assert 0 < warm_misses < cold_misses
    assert warm_hits > cold_hits
    memo = get_analysis(program, config).window_memo
    assert any(mask is not None for key in memo._windows for _, mask, _ in key[2])


def test_memo_counts_stay_out_of_payloads():
    program = build("jacobi", scale=0.05, iterations=2)
    first = run(program, "gps", config_for(64, 32))
    second = run(program, "gps", config_for(64, 32))
    assert first == second
    assert "window_memo" not in first and "memo" not in first
