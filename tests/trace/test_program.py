"""Unit tests for trace programs."""

import pytest

from repro.errors import TraceError
from repro.trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
from repro.trace.records import AccessRange, MemOp


def kernel(gpu=0, buffer="buf", offset=0, length=128, op=MemOp.READ, name="k"):
    return KernelSpec(
        name=name,
        gpu=gpu,
        compute_ops=100.0,
        accesses=(AccessRange(buffer, offset, length, op),),
    )


def program(phases, buffers=None, num_gpus=4):
    buffers = buffers or (BufferSpec("buf", 65536),)
    return TraceProgram("test", num_gpus, buffers, tuple(phases))


class TestValidation:
    def test_valid_program(self):
        prog = program([Phase("p0", (kernel(0), kernel(1)))])
        assert prog.iterations == 1

    def test_unknown_buffer_rejected(self):
        with pytest.raises(TraceError):
            program([Phase("p0", (kernel(buffer="nope"),))])

    def test_overrun_rejected(self):
        with pytest.raises(TraceError):
            program([Phase("p0", (kernel(offset=65536, length=128),))])

    def test_gpu_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            program([Phase("p0", (kernel(gpu=4),))], num_gpus=4)

    def test_duplicate_buffer_names_rejected(self):
        with pytest.raises(TraceError):
            program(
                [],
                buffers=(BufferSpec("buf", 100), BufferSpec("buf", 100)),
            )

    def test_two_kernels_same_gpu_same_phase_rejected(self):
        with pytest.raises(TraceError):
            Phase("p0", (kernel(0), kernel(0)))

    def test_zero_size_buffer_rejected(self):
        with pytest.raises(TraceError):
            BufferSpec("buf", 0)

    def test_negative_compute_rejected(self):
        with pytest.raises(TraceError):
            KernelSpec("k", 0, -1.0, ())


class TestQueries:
    def test_buffer_lookup(self):
        prog = program([])
        assert prog.buffer("buf").size == 65536
        with pytest.raises(TraceError):
            prog.buffer("zzz")

    def test_kernel_reads_and_stores(self):
        k = KernelSpec(
            "k",
            0,
            1.0,
            (
                AccessRange("buf", 0, 128, MemOp.READ),
                AccessRange("buf", 0, 128, MemOp.WRITE),
                AccessRange("buf", 0, 128, MemOp.ATOMIC),
            ),
        )
        assert len(k.reads()) == 1
        assert len(k.stores()) == 2

    def test_phase_kernel_on(self):
        phase = Phase("p", (kernel(0), kernel(2)))
        assert phase.kernel_on(0) is not None
        assert phase.kernel_on(1) is None
        assert phase.gpus == (0, 2)

    def test_iterations_excludes_setup(self):
        prog = program(
            [
                Phase("setup", (kernel(0),), iteration=-1),
                Phase("it0", (kernel(0),), iteration=0),
                Phase("it1", (kernel(0),), iteration=1),
            ]
        )
        assert prog.iterations == 2
        assert len(prog.phases_in_iteration(-1)) == 1
        assert len(prog.phases_in_iteration(0)) == 1

    def test_iter_kernels_in_order(self):
        prog = program(
            [
                Phase("p0", (kernel(0, name="a"),)),
                Phase("p1", (kernel(0, name="b"),)),
            ]
        )
        assert [k.name for k in prog.iter_kernels()] == ["a", "b"]

    def test_total_compute(self):
        prog = program([Phase("p0", (kernel(0), kernel(1)))])
        assert prog.total_compute_ops() == 200.0

    def test_shared_buffers(self):
        buffers = (BufferSpec("shared", 65536), BufferSpec("private", 65536))
        prog = TraceProgram(
            "t",
            2,
            buffers,
            (
                Phase(
                    "p0",
                    (
                        KernelSpec("a", 0, 1.0, (
                            AccessRange("shared", 0, 128, MemOp.READ),
                            AccessRange("private", 0, 128, MemOp.READ),
                        )),
                        KernelSpec("b", 1, 1.0, (
                            AccessRange("shared", 0, 128, MemOp.WRITE),
                        )),
                    ),
                ),
            ),
        )
        assert [b.name for b in prog.shared_buffers()] == ["shared"]


class TestCachedHash:
    """Kernels and phases hash once; the cached value is invisible state."""

    def test_hash_matches_field_tuple(self):
        k = kernel()
        assert hash(k) == hash((k.name, k.gpu, k.compute_ops, k.accesses, k.launch_overhead))
        phase = Phase("p", (k,), iteration=3)
        assert hash(phase) == hash(("p", (k,), 3))

    def test_cache_is_not_a_field(self):
        import dataclasses

        from repro.analysis.footprints import program_fingerprint
        from repro.trace.io import program_to_dict

        fresh = program([Phase("p", (kernel(0), kernel(1)))])
        hashed = program([Phase("p", (kernel(0), kernel(1)))])
        for phase in hashed.phases:
            hash(phase)
            for k in phase.kernels:
                hash(k)
        assert "_hash" in vars(hashed.phases[0].kernels[0])
        assert [f.name for f in dataclasses.fields(KernelSpec)] == [
            "name", "gpu", "compute_ops", "accesses", "launch_overhead",
        ]
        assert hashed.phases == fresh.phases
        assert repr(hashed.phases) == repr(fresh.phases)
        assert program_to_dict(hashed) == program_to_dict(fresh)
        assert program_fingerprint(hashed, 65536) == program_fingerprint(fresh, 65536)

    def test_pickle_drops_the_cached_hash(self):
        import pickle

        k = kernel(gpu=2, name="stencil")
        hash(k)
        # A value cached in another process (str hashes are salted per
        # process) must not travel: simulate one with a stale hash.
        object.__setattr__(k, "_hash", hash(k) + 1)
        phase = Phase("p", (k,))
        hash(phase)
        object.__setattr__(phase, "_hash", hash(phase) + 1)
        k2 = pickle.loads(pickle.dumps(k))
        phase2 = pickle.loads(pickle.dumps(phase))
        assert "_hash" not in vars(k2) and "_hash" not in vars(phase2)
        memo = {kernel(gpu=2, name="stencil"): "footprint"}
        assert memo[k2] == "footprint"
        assert {Phase("p", (kernel(gpu=2, name="stencil"),)): 1}[phase2] == 1
