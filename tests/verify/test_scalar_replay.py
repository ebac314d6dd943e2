"""Scalar-vs-vectorized replay differential.

``REPRO_SCALAR_REPLAY=1`` forces the per-element reference path through the
remote write queue, the GPS-TLB walk, the routing fan-out, and the L2 model
(two ``Cache.simulate_stream`` passes per kernel); the default path runs the
batched numpy kernels. The two are one model, so for every program they must
produce byte-identical result payloads, identical per-kernel L2 hit rates,
and identical write-queue / GPS-TLB / SM-coalescer counters.

The corpus seeds replay the committed past-bug shapes; the fresh fuzz seeds
keep the comparison honest on programs nobody hand-picked.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.cache.cache import Cache
from repro.paradigms import PARADIGMS
from repro.system.analysis import clear_analysis_cache
from repro.trace.io import load_program
from repro.verify import canonical_payload, generate_program
from repro.verify.differential import _scoped_env

CORPUS = Path(__file__).parent / "corpus"
CORPUS_SEEDS = (0, 4, 5, 6, 7, 12, 13, 18, 21, 25)
FRESH_SEEDS = (31, 47, 62, 88, 104)
NUM_GPUS, SCALE, ITERATIONS = 4, 0.25, 2


def _run(program, paradigm: str, scalar: bool):
    """``(result, per-kernel L2 hit rates, Cache.simulate_stream calls)``."""
    config = repro.default_system(program.num_gpus)
    clear_analysis_cache()  # memoised streams must not leak across paths
    walk = Cache.simulate_stream
    walks = []

    def counted_walk(cache, lines):
        walks.append(len(lines))
        return walk(cache, lines)

    with _scoped_env(REPRO_SCALAR_REPLAY="1" if scalar else None), \
            mock.patch.object(Cache, "simulate_stream", counted_walk):
        executor = PARADIGMS[paradigm](program, config)
        result = executor.run()
        l2_rates = [
            executor.analysis.footprint(kernel).l2_hit_rate
            for phase in program.phases
            for kernel in phase.kernels
        ]
    return result, l2_rates, len(walks)


def _counter_family(result, family: str) -> dict:
    return {k: v for k, v in result.counters.items() if family in k}


def _assert_paths_identical(program, paradigm: str = "gps") -> None:
    vec, vec_l2, vec_walks = _run(program, paradigm, scalar=False)
    ref, ref_l2, ref_walks = _run(program, paradigm, scalar=True)
    assert vec_walks == 0, "the vector path walked the scalar L2"
    assert ref_walks > 0, "REPRO_SCALAR_REPLAY=1 skipped the scalar L2 walk"
    assert vec_l2 == ref_l2
    assert canonical_payload(vec) == canonical_payload(ref)
    assert vec.write_queue_stats == ref.write_queue_stats
    assert vec.gps_tlb_stats == ref.gps_tlb_stats
    for family in ("write_queue", "gps_tlb", "sm_coalescer"):
        assert _counter_family(vec, family) == _counter_family(ref, family), family


class TestCorpusSeeds:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_byte_identical_payloads_and_counters(self, seed):
        program = load_program(CORPUS / f"corpus-s{seed}.json")
        _assert_paths_identical(program)


class TestFreshFuzzSeeds:
    @pytest.mark.parametrize("seed", FRESH_SEEDS)
    def test_byte_identical_payloads_and_counters(self, seed):
        program = generate_program(seed, NUM_GPUS, scale=SCALE, iterations=ITERATIONS)
        _assert_paths_identical(program)


class TestParadigmVariants:
    @pytest.mark.parametrize("paradigm", ("gps_nosub", "gps_nocoalesce"))
    def test_ablations_agree_too(self, paradigm):
        # gps_nosub keeps all-to-all fan-out hot for the whole run;
        # gps_nocoalesce forces every store down the atomic bypass.
        program = load_program(CORPUS / "corpus-s4.json")
        _assert_paths_identical(program, paradigm)


class TestL2Overflow:
    @pytest.mark.parametrize("app", ("pagerank", "sssp"))
    def test_single_gpu_baseline_that_overflows_the_l2(self, app):
        # The programs above all fit every L2 set; these one-GPU Figure 8
        # baselines overflow it, so the kernel's closed-form cold pass and
        # lockstep warm pass decide their hit rates.
        program = repro.get_workload(app).build(1, scale=0.15, iterations=ITERATIONS)
        _assert_paths_identical(program, "memcpy")
