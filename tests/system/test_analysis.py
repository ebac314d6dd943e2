"""Unit tests for program analysis."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro
from repro.gpu.sm_coalescer import sm_coalesce
from repro.harness.runner import SimJob, clear_run_cache, run_many
from repro.harness.runner.parallel import job_program
from repro.memory.address_space import AddressSpace
from repro.paradigms import PARADIGMS
from repro.system import analysis as analysis_module
from repro.system.analysis import ProgramAnalysis, clear_analysis_cache, get_analysis
from repro.trace.expand import expand_range
from repro.trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
from repro.trace.records import AccessRange, MemOp, PatternKind, PatternSpec
from repro.verify import canonical_payload, check_memo_free, generate_program
from tests.conftest import TINY

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


class TestFootprintFormula:
    """Memoised footprints equal a memo-free recomputation."""

    @pytest.mark.parametrize("workload", repro.workload_names())
    def test_page_sets_and_coalescer_stats(self, workload):
        program = repro.get_workload(workload).build(4, scale=TINY, iterations=2)
        assert check_memo_free(ProgramAnalysis(program, repro.default_system(4))) == []

    def test_scalar_replay_l2_rate(self, monkeypatch):
        # The Cache-walking reference must see the same concatenated reads.
        monkeypatch.setenv("REPRO_SCALAR_REPLAY", "1")
        program = repro.get_workload("jacobi").build(4, scale=TINY, iterations=2)
        assert check_memo_free(ProgramAnalysis(program, repro.default_system(4))) == []


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of every call ``repro.system.analysis`` makes to ``name``."""
    calls = []
    original = getattr(analysis_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis_module, name, counted)
    return calls


class TestContentMemos:
    """Per-access and per-read-set memos repeat no work and keep no streams."""

    def test_repeated_reads_and_stores_are_not_recomputed(self, monkeypatch):
        l2_calls = _counting(monkeypatch, "warm_lru_hits")
        coalesce_calls = _counting(monkeypatch, "sm_coalesce")
        read_a = AccessRange("a", 0, 2 * PAGE, MemOp.READ)
        read_b = AccessRange("b", 0, PAGE, MemOp.READ)
        store_c = AccessRange("c", 0, PAGE, MemOp.WRITE)
        store_d = AccessRange("d", 0, PAGE, MemOp.WRITE)
        kernels = (
            KernelSpec("k0", 0, 1.0, (read_a, read_b, store_c)),
            KernelSpec("k1", 1, 2.0, (read_a, read_b, store_d)),  # same reads
            KernelSpec("k2", 2, 3.0, (read_b, store_c)),  # stores repeat k0's
            KernelSpec("k3", 3, 4.0, (read_b, read_a)),  # k0's reads, reordered
        )
        buffers = tuple(BufferSpec(name, 4 * PAGE) for name in "abcd")
        program = TraceProgram("t", 4, buffers, (Phase("p", kernels),))
        analysis = ProgramAnalysis(program, repro.default_system(4))
        analysis.footprint(kernels[0])
        analysis.footprint(kernels[1])
        assert len(l2_calls) == 1
        assert len(coalesce_calls) == 2
        analysis.footprint(kernels[2])
        assert len(coalesce_calls) == 2
        assert analysis.footprint(kernels[2]).stores[0] is analysis.footprint(kernels[0]).stores[0]
        # Concatenation order changes LRU hits, so order is part of the key.
        analysis.footprint(kernels[3])
        assert len(l2_calls) == 3
        assert check_memo_free(analysis) == []

    def test_other_range_of_the_same_buffer_gets_its_own_rate(self):
        # At small scale every kernel fits the L2, so equal rates would hide
        # a key that names buffers but not ranges; the second kernel thrashes.
        config = repro.default_system(1)
        span = 2 * config.gpu.l2_bytes
        kernels = [
            KernelSpec("k", 0, 1.0, (AccessRange("a", 0, length, MemOp.READ),))
            for length in (PAGE, span)
        ]
        phases = tuple(Phase(f"p{i}", (kernel,)) for i, kernel in enumerate(kernels))
        program = TraceProgram("t", 1, (BufferSpec("a", span),), phases)
        analysis = ProgramAnalysis(program, config)
        small, large = (analysis.footprint(kernel).l2_hit_rate for kernel in kernels)
        assert small > large
        assert check_memo_free(analysis) == []

    @pytest.mark.parametrize("workload", ["jacobi", "hit"])
    def test_no_raw_stream_outlives_its_footprint(self, monkeypatch, workload):
        refs = []
        original = analysis_module.expand_range

        def recorded(*args):
            stream = original(*args)
            refs.append(weakref.ref(stream))
            return stream

        monkeypatch.setattr(analysis_module, "expand_range", recorded)
        program = repro.get_workload(workload).build(4, scale=TINY, iterations=2)
        analysis = ProgramAnalysis(program, repro.default_system(4))
        for kernel in program.iter_kernels():
            analysis.footprint(kernel)
            analysis.store_streams(kernel)
        gc.collect()
        assert refs
        assert [ref for ref in refs if ref() is not None] == []


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


FAST = dict(scale=TINY, iterations=2)


def _held_streams(program: TraceProgram) -> dict:
    """``{access key: (lines, bytes)}`` every cached analysis of ``program`` holds."""
    held: dict = {}
    for analysis in analysis_module._ANALYSIS_CACHE.values():
        if analysis.program is program:
            for key, stream in analysis._store_streams.items():
                held[key] = (stream.lines.tobytes(), stream.bytes_per_txn.tobytes())
    return held


def _stream_rebuilds() -> int:
    return sum(a.stream_rebuilds for a in analysis_module._ANALYSIS_CACHE.values())


@pytest.fixture
def cold_runner():
    clear_run_cache()
    clear_analysis_cache()
    yield
    clear_run_cache()
    clear_analysis_cache()


class TestStoreStreamRetention:
    """Only the running program's analyses keep their SM-coalesced store streams."""

    def test_only_the_last_program_holds_its_streams(self, cold_runner):
        # Group sizes 3, 2, 1: the serial walk runs the largest group first,
        # so ct runs last.
        groups = {"jacobi": ("gps", "memcpy", "um"), "pagerank": ("gps", "rdl"), "ct": ("gps",)}
        jobs = [SimJob(app, p, 2, **FAST) for app, paradigms in groups.items() for p in paradigms]
        run_many(jobs, max_workers=1)
        programs = {app: job_program(SimJob(app, "gps", 2, **FAST)) for app in groups}
        assert _held_streams(programs["jacobi"]) == {}
        assert _held_streams(programs["pagerank"]) == {}
        last = programs["ct"]
        base = get_analysis(last, repro.default_system(2))
        want = {}
        for kernel in last.iter_kernels():
            for access in kernel.accesses:
                if access.op.is_store:
                    key = (access, base.buffer_base(access.buffer))
                    stream = sm_coalesce(expand_range(*key))
                    want[key] = (stream.lines.tobytes(), stream.bytes_per_txn.tobytes())
        assert want
        assert _held_streams(last) == want

    def test_a_config_grid_of_one_program_rebuilds_nothing(self, cold_runner):
        base = repro.default_system(2)
        jobs = [
            SimJob("jacobi", "gps", 2, config=dataclasses.replace(
                base, gps=dataclasses.replace(
                    base.gps, write_queue_entries=entries, gps_tlb_entries=tlb)), **FAST)
            for entries in (32, 128, 512) for tlb in (8, 32)
        ]
        run_many(jobs, max_workers=1)
        assert len({job.key() for job in jobs}) == 6
        assert _stream_rebuilds() == 0

    def test_alternating_page_sizes_of_one_program_rebuild_nothing(self, cold_runner):
        configs = [repro.default_system(2), repro.default_system(2).with_page_size(repro.PAGE_2M)]
        jobs = [
            SimJob("jacobi", paradigm, 2, config=config, **FAST)
            for paradigm in ("gps", "gps_nosub") for config in configs
        ]
        run_many(jobs, max_workers=1)
        program = job_program(jobs[0])
        analyses = [a for a in analysis_module._ANALYSIS_CACHE.values() if a.program is program]
        assert len(analyses) == 2
        assert all(a._store_streams for a in analyses)
        assert _stream_rebuilds() == 0

    def test_a_revisited_program_rebuilds_each_stream_once(self, cold_runner):
        base = repro.default_system(2)

        def gps(app: str, entries: int) -> SimJob:
            config = dataclasses.replace(
                base, gps=dataclasses.replace(base.gps, write_queue_entries=entries))
            return SimJob(app, "gps", 2, config=config, **FAST)

        run_many([gps("jacobi", 32)], max_workers=1)
        analysis = get_analysis(job_program(gps("jacobi", 32)), base)
        before = {key: (s.lines.copy(), s.bytes_per_txn.copy())
                  for key, s in analysis._store_streams.items()}
        run_many([gps("ct", 32)], max_workers=1)
        assert analysis._store_streams == {} and analysis.stream_rebuilds == 0
        run_many([gps("jacobi", 128)], max_workers=1)
        rebuilt = analysis.stream_rebuilds
        assert rebuilt == len(analysis._store_streams) > 0
        for key, stream in analysis._store_streams.items():
            lines, nbytes = before[key]
            assert np.array_equal(stream.lines, lines)
            assert np.array_equal(stream.bytes_per_txn, nbytes)
        run_many([gps("jacobi", 512)], max_workers=1)
        assert analysis.stream_rebuilds == rebuilt


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


def _replace_access(
    program: TraceProgram, phase: int, gpu: int, index: int, **changes
) -> TraceProgram:
    """``program`` with one kernel's ``index``-th access changed by ``changes``."""
    kernels = list(program.phases[phase].kernels)
    slot = next(i for i, k in enumerate(kernels) if k.gpu == gpu)
    accesses = list(kernels[slot].accesses)
    accesses[index] = dataclasses.replace(accesses[index], **changes)
    kernels[slot] = dataclasses.replace(kernels[slot], accesses=tuple(accesses))
    phases = list(program.phases)
    phases[phase] = dataclasses.replace(phases[phase], kernels=tuple(kernels))
    return dataclasses.replace(program, phases=tuple(phases))


def _two_program_pairs():
    """Fuzz program pairs ``(a, b)``: same name and layout, one access apart.

    * ``read-range``: a later kernel reads half the range, which changes
      per-kernel footprints and every paradigm's result.
    * ``private-buffer``: GPU 1's setup write to ``buf0`` lands on ``buf1``
      instead. ``buf0`` is touched nowhere else by GPU 1, so it becomes
      private to GPU 0: the program-level shared-buffer set changes, the one
      fact the analysis computes once per program rather than per kernel.
    """
    a = generate_program(2, num_gpus=2, scale=0.25, iterations=2)
    read = a.phases[1].kernels[1].accesses[0]
    assert read.op is MemOp.READ
    shrunk = _replace_access(a, 1, 1, 0, length=read.length // 2)
    assert a.phases[0].kernels[1].accesses[0].buffer == "buf0"
    moved = _replace_access(a, 0, 1, 0, buffer="buf1")
    assert {b.name for b in moved.shared_buffers()} == {"buf1", "buf2"}
    return {"read-range": (a, shrunk), "private-buffer": (a, moved)}


def _cold(program: TraceProgram, paradigm: str) -> str:
    clear_analysis_cache()
    try:
        return canonical_payload(repro.simulate(program, paradigm, repro.default_system(2)))
    finally:
        clear_analysis_cache()


class TestTwoProgramsOneProcess:
    """``simulate(b)`` after ``simulate(a)`` in one process equals a cold run.

    ``a`` and ``b`` share a name and buffer layout, so any memo keyed on
    less than program content would hand ``b`` state computed for ``a``.
    """

    @pytest.mark.parametrize("variant", ["read-range", "private-buffer"])
    @pytest.mark.parametrize("paradigm", repro.FIGURE8_ORDER)
    def test_warm_equals_cold(self, paradigm, variant):
        a, b = _two_program_pairs()[variant]
        assert (a.name, a.buffers) == (b.name, b.buffers)
        cold = _cold(b, paradigm)
        config = repro.default_system(2)
        clear_analysis_cache()
        repro.simulate(a, paradigm, config)
        warm = canonical_payload(repro.simulate(b, paradigm, config))
        # Setup writes are never broadcast, so a stale shared-buffer set
        # cannot show in a fuzz pair's results; check it directly too.
        analysis = get_analysis(b, config)
        shared = {buf.name for buf in b.buffers if analysis.is_shared_buffer(buf.name)}
        clear_analysis_cache()
        assert warm == cold
        assert shared == {buf.name for buf in b.shared_buffers()}

    def test_pairs_change_results(self):
        # Otherwise warm == cold would hold trivially.
        pairs = _two_program_pairs()
        a, b = pairs["read-range"]
        assert all(_cold(a, p) != _cold(b, p) for p in repro.FIGURE8_ORDER)
        a, b = pairs["private-buffer"]
        assert _cold(a, "um") != _cold(b, "um")


class TestSortedUnique:
    """Page-set unions use a sort and a keep-first mask, never ``np.unique``."""

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(0).integers(0, 1 << 40, 5000),
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.random.default_rng(1).integers(0, 6, 4000),
            np.full(100, 3, dtype=np.int64),
        ],
        ids=["random", "empty", "single", "duplicate-heavy", "all-equal"],
    )
    def test_equals_np_unique(self, values):
        got = analysis_module._sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_a_serial_run_many_never_loads_numpy_ma(self):
        # ``np.unique`` imports ``numpy.ma`` (~9 ms) on first use: a fresh
        # process must not pay it inside its first simulation.
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.harness.runner import SimJob, run_many\n"
            "from repro.paradigms.registry import PARADIGMS\n"
            "jobs = [SimJob(w, p, 2, 'pcie6', 0.1, 2)"
            " for w in ('jacobi', 'ct', 'als') for p in PARADIGMS]\n"
            "jobs.append(SimJob('jacobi', 'memcpy', 1, 'pcie6', 0.1, 2))\n"
            "run_many(jobs, max_workers=1)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "REPRO_NO_CACHE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
