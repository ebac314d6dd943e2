"""Cross-cutting paradigm-semantics tests: overlap, steadiness, ordering."""

import pytest

import repro
from tests.conftest import build


def busy_spans(executor):
    """The run's spans that occupy their resource for a positive time."""
    return [span for span in executor.engine.spans() if span.duration > 0]


def phase_window(entries, phase_name):
    """(start, end) of all entries whose task name carries the phase."""
    selected = [e for e in entries if e.name.startswith(phase_name)]
    return min(e.start for e in selected), max(e.end for e in selected)


class TestMemcpyBulkSynchrony:
    def test_transfers_start_after_all_kernels(self, system4):
        executor = repro.make_executor("memcpy", build("ct", iterations=1), system4)
        executor.run()
        entries = busy_spans(executor)
        for phase in executor.program.phases:
            if executor.is_setup_phase(phase):
                continue
            kernels = [
                e for e in entries if e.name.startswith(phase.name) and "@gpu" in e.name
            ]
            transfers = [
                e for e in entries if e.name.startswith(phase.name) and "memcpy" in e.name
            ]
            assert transfers, phase.name
            last_kernel_end = max(e.end for e in kernels)
            first_transfer_start = min(e.start for e in transfers)
            assert first_transfer_start >= last_kernel_end - 1e-12


class TestGPSOverlap:
    def test_publication_starts_with_kernels(self, system4):
        executor = repro.make_executor("gps", build("ct", iterations=2), system4)
        executor.run()
        entries = busy_spans(executor)
        # Pick a steady-state phase with publication traffic.
        steady = executor.program.phases_in_iteration(1)[0]
        kernels = [
            e for e in entries if e.name.startswith(steady.name) and "@gpu" in e.name
        ]
        pubs = [
            e for e in entries if e.name.startswith(steady.name) and "gps-pub" in e.name
        ]
        assert pubs, "CT must publish in steady state"
        first_kernel_start = min(e.start for e in kernels)
        first_pub_start = min(e.start for e in pubs)
        # Publication rides alongside the kernel, not after it.
        assert first_pub_start == pytest.approx(first_kernel_start, abs=1e-9)


class TestOverlapShowsInUtilisation:
    def test_gps_overlaps_memcpy_serialises(self, system4):
        program = build("ct", scale=0.3, iterations=2)

        def gpu0_busy_fraction(paradigm):
            executor = repro.make_executor(paradigm, program, system4)
            result = executor.run()
            busy = sum(s.duration for s in busy_spans(executor) if s.track == "gpu0")
            return busy / result.total_time

        # Same bytes broadcast, but memcpy's run is longer, so its GPU
        # busy-fraction is lower: communication happened *after* compute.
        assert gpu0_busy_fraction("gps") > gpu0_busy_fraction("memcpy")


class TestSteadyStateStationarity:
    @pytest.mark.parametrize("paradigm", ["gps", "memcpy", "rdl"])
    def test_per_iteration_traffic_constant_after_profiling(self, paradigm, system4):
        def bytes_at(iterations):
            return repro.simulate(
                build("diffusion", iterations=iterations), paradigm, system4
            ).interconnect_bytes

        delta_23 = bytes_at(3) - bytes_at(2)
        delta_34 = bytes_at(4) - bytes_at(3)
        assert delta_23 == delta_34

    def test_per_iteration_time_constant_after_profiling(self, system4):
        result = repro.simulate(build("jacobi", iterations=4), "gps", system4)
        steady = [
            p.duration
            for p in result.phases
            if p.name.startswith(("it2", "it3"))
        ]
        assert len(steady) == 4
        assert max(steady) == pytest.approx(min(steady), rel=1e-6)


class TestUMDeterministicOrdering:
    def test_thrash_counts_are_stable(self, system4):
        a = repro.simulate(build("pagerank", iterations=3), "um", system4)
        b = repro.simulate(build("pagerank", iterations=3), "um", system4)
        assert a.pages_migrated == b.pages_migrated
        assert a.fault_count == b.fault_count

    def test_lowest_gpu_touches_first(self, system4):
        # Residency processing runs in ascending GPU order: after a phase
        # where every GPU touches a page, the highest-id accessor holds it,
        # so the *next* phase's lowest accessor faults it back.
        result = repro.simulate(build("als", iterations=2), "um", system4)
        assert result.pages_migrated > 0
