"""Golden corpus: committed fuzzer programs replayed as differential tests.

The corpus under ``tests/verify/corpus/`` holds ten minimal fuzzer-generated
programs chosen for the shapes that have broken result plumbing before —
zero-payload (idle) kernels, atomic scatters, single- and triple-buffer
programs, back-to-back reduce phases. Each is replayed three ways:

* the on-disk JSON must still match what the fuzzer generates for its seed
  (the generator is part of the contract — a silent grammar change breaks
  cross-process rebuild-by-name);
* every program must stay analyzer-strict-clean and oracle-clean under the
  paradigms the harness differentials;
* the direct and warm-disk-cache paths must agree byte-for-byte.

Two more past-bug shapes ride along as behavioural goldens: a truncated
persistent-cache record must read as a miss (never a crash or a torn
result), and duplicate in-batch jobs must coalesce to one computation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import Severity, analyze_program
from repro.harness.runner import (
    SimJob,
    cache_stats,
    clear_run_cache,
    run_many,
    run_simulation,
)
from repro.harness.runner.disk import DiskCache
from repro.obs.host import HOST
from repro.paradigms import PARADIGMS
from repro.trace.io import load_program, program_to_dict
from repro.verify import canonical_payload, check_result, generate_program

CORPUS = Path(__file__).parent / "corpus"
CORPUS_SEEDS = (0, 4, 5, 6, 7, 12, 13, 18, 21, 25)
CORPUS_GPUS, CORPUS_SCALE, CORPUS_ITERATIONS = 4, 0.25, 2


def corpus_path(seed: int) -> Path:
    return CORPUS / f"corpus-s{seed}.json"


class TestCorpusIntegrity:
    def test_every_committed_file_is_a_known_seed(self):
        files = sorted(CORPUS.glob("*.json"))
        assert {p.name for p in files} == {f"corpus-s{s}.json" for s in CORPUS_SEEDS}

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_generator_still_produces_the_committed_program(self, seed):
        committed = load_program(corpus_path(seed))
        regenerated = generate_program(
            seed, CORPUS_GPUS, scale=CORPUS_SCALE, iterations=CORPUS_ITERATIONS
        )
        assert program_to_dict(committed) == program_to_dict(regenerated)

    def test_corpus_covers_the_past_bug_shapes(self):
        programs = [load_program(corpus_path(s)) for s in CORPUS_SEEDS]
        assert any(  # zero-payload kernels
            not k.accesses for p in programs for k in p.iter_kernels()
        )
        assert any(  # atomic scatters
            a.op.name == "ATOMIC"
            for p in programs for k in p.iter_kernels() for a in k.accesses
        )
        assert {len(p.buffers) for p in programs} >= {1, 2, 3}


class TestCorpusReplay:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_strict_clean_and_oracle_clean(self, seed):
        program = load_program(corpus_path(seed))
        diagnostics = analyze_program(program)
        assert not [
            d for d in diagnostics
            if d.severity in (Severity.ERROR, Severity.WARNING)
        ]
        config = repro.default_system(CORPUS_GPUS)
        for paradigm in ("gps", "memcpy", "infinite"):
            result = PARADIGMS[paradigm](program, config).run()
            assert check_result(result, config) == [], paradigm

    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:4])
    def test_direct_equals_warm_disk_cache(self, seed, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_run_cache()
        try:
            kwargs = dict(scale=CORPUS_SCALE, iterations=CORPUS_ITERATIONS)
            cold = run_simulation(f"fuzz/{seed}", "gps", CORPUS_GPUS, **kwargs)
            clear_run_cache()  # drop the memo: force the disk read
            warm = run_simulation(f"fuzz/{seed}", "gps", CORPUS_GPUS, **kwargs)
            assert canonical_payload(warm) == canonical_payload(cold)
        finally:
            clear_run_cache()


class TestPastBugBehaviours:
    def test_truncated_cache_record_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        program = load_program(corpus_path(0))
        config = repro.default_system(CORPUS_GPUS)
        result = PARADIGMS["gps"](program, config).run()
        cache.put("deadbeef", result)
        record = tmp_path / "deadbeef.json"
        record.write_text(record.read_text()[: record.stat().st_size // 2])
        evictions = cache_stats().counter("evictions").value
        assert cache.get("deadbeef") is None
        assert cache_stats().counter("evictions").value == evictions + 1

    def test_half_written_record_is_valid_json_but_wrong_shape(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "cafe.json").write_text(json.dumps({"version": 1}))
        assert cache.get("cafe") is None

    def test_duplicate_jobs_coalesce_to_one_computation(self):
        clear_run_cache()
        job = SimJob(
            "fuzz/6", "gps", CORPUS_GPUS,
            scale=CORPUS_SCALE, iterations=CORPUS_ITERATIONS,
        )
        results = run_many([job, job, job], max_workers=1)
        assert results[0] is results[1] is results[2]
        fleet = HOST.scope("host.fleet").as_dict()
        assert fleet["jobs_submitted"] >= 3
        assert fleet["jobs_computed"] == 1
        clear_run_cache()
