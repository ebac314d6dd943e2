"""Unit tests for program analysis."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.memory.address_space import AddressSpace
from repro.paradigms import PARADIGMS
from repro.system import analysis as analysis_module
from repro.system.analysis import ProgramAnalysis, clear_analysis_cache, get_analysis
from repro.trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
from repro.trace.records import AccessRange, MemOp, PatternKind, PatternSpec
from repro.verify import canonical_payload

PAGE = 65536


@pytest.fixture
def simple_program():
    buffers = (BufferSpec("a", 4 * PAGE), BufferSpec("b", 4 * PAGE))
    k0 = KernelSpec(
        "k",
        0,
        1000.0,
        (
            AccessRange("a", 0, 2 * PAGE, MemOp.READ),
            AccessRange("b", 0, 2 * PAGE, MemOp.WRITE),
        ),
    )
    k1 = KernelSpec(
        "k",
        1,
        1000.0,
        (
            AccessRange("a", 2 * PAGE, 2 * PAGE, MemOp.READ),
            AccessRange("b", 2 * PAGE, 2 * PAGE, MemOp.WRITE),
        ),
    )
    return TraceProgram("t", 2, buffers, (Phase("p", (k0, k1)),))


@pytest.fixture
def analysis(simple_program):
    return ProgramAnalysis(simple_program, repro.default_system(2))


class TestLayout:
    def test_bases_sequential_page_aligned(self, analysis):
        assert analysis.buffer_base("a") == AddressSpace.HEAP_BASE
        assert analysis.buffer_base("b") == AddressSpace.HEAP_BASE + 4 * PAGE

    def test_layout_matches_gps_runtime(self, simple_program):
        # The GPS executor asserts this; check it directly too.
        config = repro.default_system(2)
        analysis = ProgramAnalysis(simple_program, config)
        runtime = repro.GPSRuntime(config)
        for buf in simple_program.buffers:
            alloc = runtime.malloc_gps(buf.name, buf.size)
            assert alloc.start == analysis.buffer_base(buf.name)

    def test_buffer_of_page(self, analysis):
        base_vpn = AddressSpace.HEAP_BASE // PAGE
        assert analysis.buffer_of_page(base_vpn).name == "a"
        assert analysis.buffer_of_page(base_vpn + 4).name == "b"
        assert analysis.buffer_of_page(0) is None

    def test_shared_buffers_detected(self, analysis):
        assert analysis.is_shared_buffer("a")
        assert analysis.is_shared_buffer("b")
        assert analysis.shared_page_count() == 8


class TestFootprint:
    def test_pages_partitioned(self, simple_program, analysis):
        k0 = simple_program.phases[0].kernels[0]
        footprint = analysis.footprint(k0)
        assert footprint.read_pages.size == 2
        assert footprint.store_pages.size == 2
        assert footprint.all_pages.size == 4

    def test_bytes_by_kind(self, simple_program, analysis):
        k0 = simple_program.phases[0].kernels[0]
        footprint = analysis.footprint(k0)
        assert footprint.total_read_bytes == 2 * PAGE
        assert footprint.total_store_bytes == 2 * PAGE

    def test_footprint_memoised(self, simple_program, analysis):
        k0 = simple_program.phases[0].kernels[0]
        assert analysis.footprint(k0) is analysis.footprint(k0)

    def test_l2_hit_rate_small_footprint_warm(self, simple_program, analysis):
        # 128 KiB working set fits the 6 MiB L2: warm hit rate ~1.
        k0 = simple_program.phases[0].kernels[0]
        assert analysis.footprint(k0).l2_hit_rate == pytest.approx(1.0)


class TestPhaseDataflow:
    def test_page_writers(self, simple_program, analysis):
        writers = analysis.phase_page_writers(simple_program.phases[0])
        b_base = analysis.buffer_base("b") // PAGE
        assert writers[b_base] == [0]
        assert writers[b_base + 2] == [1]

    def test_page_readers(self, simple_program, analysis):
        readers = analysis.phase_page_readers(simple_program.phases[0])
        a_base = analysis.buffer_base("a") // PAGE
        assert readers[a_base] == [0]

    def test_written_extent_shared_only(self, simple_program, analysis):
        k0 = simple_program.phases[0].kernels[0]
        assert analysis.written_extent_bytes(k0) == 2 * PAGE


class TestStoreStreams:
    def test_streams_are_sm_coalesced(self, simple_program, analysis):
        k0 = simple_program.phases[0].kernels[0]
        streams = analysis.store_streams(k0)
        assert len(streams) == 1
        _, stream, atomic = streams[0]
        assert not atomic
        assert len(stream) == 2 * PAGE // 128

    def test_atomic_flag_propagates(self):
        buffers = (BufferSpec("a", PAGE),)
        kernel = KernelSpec(
            "k", 0, 1.0,
            (AccessRange("a", 0, PAGE, MemOp.ATOMIC, PatternSpec(PatternKind.RANDOM, bytes_per_txn=16)),),
        )
        program = TraceProgram("t", 1, buffers, (Phase("p", (kernel,)),))
        analysis = ProgramAnalysis(program, repro.default_system(1))
        _, _, atomic = analysis.store_streams(kernel)[0]
        assert atomic


class TestSharedCache:
    def test_same_program_shares_analysis(self):
        clear_analysis_cache()
        config = repro.default_system(4)
        program = repro.get_workload("jacobi").build(4, scale=0.1, iterations=2)
        assert get_analysis(program, config) is get_analysis(program, config)

    def test_different_page_size_not_shared(self):
        clear_analysis_cache()
        program = repro.get_workload("jacobi").build(4, scale=0.1, iterations=2)
        a = get_analysis(program, repro.default_system(4))
        b = get_analysis(program, repro.default_system(4).with_page_size(repro.PAGE_2M))
        assert a is not b

    def test_lru_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(analysis_module, "ANALYSIS_CACHE_SIZE", 2)
        clear_analysis_cache()
        config = repro.default_system(4)
        programs = [
            repro.get_workload("jacobi").build(4, scale=scale, iterations=2)
            for scale in (0.1, 0.15, 0.2)
        ]
        a, b, c = (get_analysis(p, config) for p in programs)
        # Inserting the third evicted the oldest; the other two stay.
        assert get_analysis(programs[2], config) is c
        assert get_analysis(programs[1], config) is b
        assert get_analysis(programs[0], config) is not a
        clear_analysis_cache()

    def test_lru_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(analysis_module, "ANALYSIS_CACHE_SIZE", 2)
        clear_analysis_cache()
        config = repro.default_system(4)
        programs = [
            repro.get_workload("jacobi").build(4, scale=scale, iterations=2)
            for scale in (0.1, 0.15, 0.2)
        ]
        a = get_analysis(programs[0], config)
        b = get_analysis(programs[1], config)
        assert get_analysis(programs[0], config) is a  # a is now the newest
        get_analysis(programs[2], config)  # evicts b, not a
        assert get_analysis(programs[0], config) is a
        assert get_analysis(programs[1], config) is not b
        clear_analysis_cache()

    def test_lru_bound_covers_every_harness_grid(self):
        # The largest grid, the page-size study, analyses 8 workloads at 3
        # page sizes; fig08 needs 16. Neither may evict its own entries.
        assert analysis_module.ANALYSIS_CACHE_SIZE > 3 * len(repro.workload_names())

    def test_same_name_and_layout_with_other_accesses_not_shared(self):
        # Stripping GPU 1's field_a accesses keeps jacobi's name, GPU count,
        # buffer layout and phase count but makes field_a private to GPU 0,
        # so memcpy moves fewer bytes. Analysing the original first in the
        # same process must not leak its shared-buffer set into the result.
        config = repro.default_system(2)
        original = repro.get_workload("jacobi").build(2, scale=0.25, iterations=2)
        stripped = _without_accesses(original, gpu=1, buffer="field_a")
        assert stripped.name == original.name
        assert stripped.buffers == original.buffers
        clear_analysis_cache()
        cold = canonical_payload(PARADIGMS["memcpy"](stripped, config).run())
        clear_analysis_cache()
        PARADIGMS["memcpy"](original, config).run()
        warm = canonical_payload(PARADIGMS["memcpy"](stripped, config).run())
        clear_analysis_cache()
        assert warm == cold


def _without_accesses(program: TraceProgram, gpu: int, buffer: str) -> TraceProgram:
    """``program`` with every access ``gpu`` makes to ``buffer`` removed."""

    def strip(kernel: KernelSpec) -> KernelSpec:
        if kernel.gpu != gpu:
            return kernel
        kept = tuple(a for a in kernel.accesses if a.buffer != buffer)
        return dataclasses.replace(kernel, accesses=kept)

    phases = tuple(
        dataclasses.replace(phase, kernels=tuple(strip(k) for k in phase.kernels))
        for phase in program.phases
    )
    return dataclasses.replace(program, phases=phases)
