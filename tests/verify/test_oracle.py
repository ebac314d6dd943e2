"""Invariant-oracle tests: clean runs pass, injected bugs are caught.

The mutation tests are the oracle's own acceptance criterion: take a known
clean simulation, corrupt one field the way a plumbing bug would (a counter
that stops accumulating, a phase window that drifts, a digest that goes
stale), and assert the *specific* checker fires.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.paradigms import PARADIGMS
from repro.system.results import PhaseBreakdown
from repro.verify.oracle import (
    ORACLE_CHECKS,
    check_execution,
    check_family,
    check_result,
    oracle_catalogue,
)

from tests.conftest import TINY, build


def run_traced(workload: str, paradigm: str, gpus: int = 2):
    program = build(workload, gpus)
    config = repro.default_system(gpus)
    executor = PARADIGMS[paradigm](program, config)
    return executor, executor.run(), config


def jacobi_gps(scale: float = TINY):
    program = repro.get_workload("jacobi").build(2, scale=scale, iterations=2)
    config = repro.default_system(2)
    executor = PARADIGMS["gps"](program, config)
    return executor, executor.run(), config


@pytest.fixture(scope="module")
def gps_run():
    return jacobi_gps()


def checks_fired(violations) -> set:
    return {v.check for v in violations}


class TestCleanRuns:
    @pytest.mark.parametrize("paradigm", sorted(PARADIGMS))
    def test_every_paradigm_is_oracle_clean(self, paradigm):
        executor, result, config = run_traced("pagerank", paradigm)
        assert check_result(result, config) == []
        assert check_execution(executor, result) == []

    def test_family_laws_hold(self):
        program = build("jacobi", 2)
        config = repro.default_system(2)
        family = {
            name: PARADIGMS[name](program, config).run()
            for name in ("gps", "gps_nosub", "memcpy", "infinite")
        }
        assert check_family(family) == []

    def test_stray_no_trace_variable_is_ignored(self, monkeypatch):
        # Spans are derived from the schedule, so a leftover switch from an
        # older release cannot empty them and fake a busy-time mismatch.
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        executor, result, _config = jacobi_gps(scale=0.25)
        assert check_execution(executor, result) == []
        assert executor.engine.spans()

    def test_catalogue_covers_every_registered_check(self):
        names = {name for name, _, _ in oracle_catalogue()}
        assert names == set(ORACLE_CHECKS)
        assert all(summary for _, _, summary in oracle_catalogue())


class TestMutationsAreCaught:
    """Each injected bug must trip its checker (and only plausibly related ones)."""

    def test_undercounted_link_bytes(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.counters["link.bytes"] -= 4096  # a transfer path that forgot to count
        assert "wire-byte-conservation" in checks_fired(check_result(result, config))

    def test_egress_counter_drift(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.counters["link.egress0.bytes"] += 128
        assert "wire-byte-conservation" in checks_fired(check_result(result, config))

    def test_nan_total_time(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.total_time = math.nan
        assert "total-time-sane" in checks_fired(check_result(result, config))

    def test_negative_counter(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.counters["gpu0.dram.read_bytes"] = -1
        fired = checks_fired(check_result(result, config))
        assert "counters-finite-nonnegative" in fired

    def test_rollup_divergence(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.counters["dram.read_bytes"] += 64  # aggregate drifts off its parts
        assert "gpu-rollup-conservation" in checks_fired(check_result(result, config))

    def test_phase_gap(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        broken = result.phases[1]
        result.phases[1] = PhaseBreakdown(
            broken.name, broken.start + 1e-3, broken.end,
            broken.kernel_time, broken.exposed_transfer_time,
        )
        assert "phase-timeline-tiles" in checks_fired(check_result(result, config))

    def test_kernel_time_overflows_phase(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        phase = result.phases[0]
        result.phases[0] = PhaseBreakdown(
            phase.name, phase.start, phase.end,
            phase.duration * 2.0, phase.exposed_transfer_time,
        )
        assert "phase-breakdown-sane" in checks_fired(check_result(result, config))

    def test_write_queue_ledger_break(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.write_queue_stats[0].stores_seen += 7  # stores that never landed
        assert "write-queue-accounting" in checks_fired(check_result(result, config))

    def test_tlb_evictions_exceed_misses(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        stats = result.gps_tlb_stats[0]
        stats.evictions = stats.misses + 1
        assert "gps-tlb-accounting" in checks_fired(check_result(result, config))

    def test_impossible_subscriber_count(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.subscriber_histogram[config.num_gpus + 3] = 10
        assert "subscriber-histogram-sane" in checks_fired(check_result(result, config))

    def test_faults_on_non_faulting_paradigm(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.fault_count = 12
        assert "fault-accounting" in checks_fired(check_result(result, config))

    def test_stale_schedule_digest(self, gps_run):
        executor, result, _config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        result.extras["schedule_digest"] = "0" * 64
        assert "schedule-digest-stable" in checks_fired(check_execution(executor, result))

    def test_missing_schedule_digest(self, gps_run):
        _, result, config = gps_run
        result = repro.SimulationResult.from_dict(result.to_dict())
        del result.extras["schedule_digest"]
        assert "schedule-digest-present" in checks_fired(check_result(result, config))


class TestSpanMutations:
    """Corrupt the schedule itself; the span invariants read it back."""

    @pytest.fixture
    def fresh_run(self):
        return jacobi_gps()

    @staticmethod
    def busy_tasks(executor, track):
        return [
            task for task in executor.engine.tasks()
            if task.resource is not None and task.resource.name == track
            and task.duration > 0
        ]

    def test_span_past_makespan(self, fresh_run):
        executor, result, _ = fresh_run
        task = self.busy_tasks(executor, "gpu0")[-1]
        task._end = result.total_time * 2.0
        fired = checks_fired(check_execution(executor, result))
        assert "spans-cover-makespan" in fired

    def test_overlapping_spans_on_one_track(self, fresh_run):
        executor, result, _ = fresh_run
        first, second = self.busy_tasks(executor, "gpu0")[:2]
        shift = second._start - first._start
        second._start -= shift
        second._end -= shift
        fired = checks_fired(check_execution(executor, result))
        assert "spans-exclusive-per-track" in fired
        assert "span-busy-conservation" not in fired

    def test_busy_time_drift(self, fresh_run):
        executor, result, _ = fresh_run
        executor.engine.resource("egress0").busy_time += result.total_time / 10.0
        fired = checks_fired(check_execution(executor, result))
        assert fired == {"span-busy-conservation"}


class TestFamilyMutations:
    @pytest.fixture(scope="class")
    def family(self):
        program = repro.get_workload("jacobi").build(2, scale=TINY, iterations=2)
        config = repro.default_system(2)
        return {
            name: PARADIGMS[name](program, config).run()
            for name in ("gps", "gps_nosub", "memcpy", "infinite")
        }

    def _copy(self, family):
        return {
            name: repro.SimulationResult.from_dict(result.to_dict())
            for name, result in family.items()
        }

    def test_infinite_beaten_is_flagged(self, family):
        doctored = self._copy(family)
        doctored["gps"].total_time = doctored["infinite"].total_time / 2.0
        assert "infinite-lower-bound" in checks_fired(check_family(doctored))

    def test_gps_exceeding_broadcast_is_flagged(self, family):
        doctored = self._copy(family)
        extra = doctored["gps_nosub"].interconnect_bytes + 4096
        doctored["gps"].traffic.add(0, 1, extra)
        fired = checks_fired(check_family(doctored))
        assert "subscription-never-adds-traffic" in fired
        assert "gps-bounded-by-memcpy" in fired

    def test_mixed_programs_are_flagged(self, family):
        doctored = self._copy(family)
        doctored["memcpy"].program_name = "somebody-else"
        assert "same-program-identity" in checks_fired(check_family(doctored))
