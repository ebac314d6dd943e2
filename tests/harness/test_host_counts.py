"""Exact host work counts from ``repro.obs.host.HOST``.

Counts do not drift the way wall time does, so they judge every memo and
pool path deterministically: a memo that stops hitting, or a pool that
loses or repeats a worker's work, moves a number here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import clear_cache
from repro.config import default_system
from repro.harness.runner import SimJob, clear_run_cache, run_many
from repro.obs.host import HOST
from repro.system.analysis import clear_analysis_cache

#: The program and analysis work of a grid; the fleet and result-cache
#: counts depend on how the grid was run, these must not.
WORK = ("programs", "fingerprints", "analyses", "warm_l2", "window_memo", "diagnostics", "streams")

APPS = ("jacobi", "pagerank", "sssp", "als", "ct", "eqwp", "diffusion", "hit")
FIGURE8_PARADIGMS = ("um", "um_hints", "rdl", "memcpy", "gps", "infinite")


def work() -> "dict[str, int]":
    """Every nonzero program and analysis count of this process."""
    heads = tuple(f"host.{name}" for name in WORK)
    return {name: value for name, value in HOST.as_dict().items() if name.startswith(heads) and value}


@pytest.fixture
def cold():
    """No memoised program, analysis, diagnostics or result, and every count zero."""
    def reset():
        clear_run_cache()
        clear_analysis_cache()
        clear_cache()

    reset()
    yield reset
    reset()


def test_a_gps_sweep_of_one_program_does_its_program_work_once(cold):
    base = default_system(4)
    jobs = [
        SimJob("jacobi", paradigm, 4, "pcie6", 0.15, 2, dataclasses.replace(
            base, gps=dataclasses.replace(base.gps, write_queue_entries=entries, gps_tlb_entries=tlb),
        ))
        for paradigm in ("gps", "gps_nosub", "gps_nocoalesce")
        for entries in (16, 64, 256)
        for tlb in (16, 32)
    ]
    run_many(jobs, max_workers=1)
    counts = work()
    assert HOST.counter("host.fleet.jobs_computed").value == 18
    assert counts["host.programs.built"] == 1
    assert counts["host.fingerprints"] == 1
    assert counts["host.analyses.built"] == 1
    # One warm-L2 walk per read set, shared by every config and variant.
    assert counts["host.warm_l2.calls"] == 8
    assert counts["host.diagnostics.misses"] == 1
    assert "host.streams.rebuilt" not in counts


def test_a_figure8_grid_does_the_same_work_serially_and_pooled(cold):
    jobs = [SimJob(app, "memcpy", 1, "pcie6", 0.15, 2) for app in APPS]
    jobs += [SimJob(app, p, 4, "pcie6", 0.15, 2) for app in APPS for p in FIGURE8_PARADIGMS]
    run_many(jobs, max_workers=1)
    serial = work()
    # 8 apps on 1 and 4 GPUs: each program is built, fingerprinted and
    # analysed once, whichever paradigms share it.
    assert serial["host.programs.built"] == serial["host.fingerprints"] == 16
    assert serial["host.analyses.built"] == serial["host.diagnostics.misses"] == 16
    assert serial["host.warm_l2.calls"] == 78
    assert HOST.counter("host.pool.tasks").value == 0
    cold()
    run_many(jobs, max_workers=2)
    assert HOST.counter("host.pool.tasks").value == 16  # one task per program
    assert work() == serial
