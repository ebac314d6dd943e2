"""Tests for the parallel runner, the persistent cache, and cache stats."""

import dataclasses
import json
import os

import pytest

import repro
from repro.harness.runner import (
    SimJob,
    cache_stats,
    clear_disk_cache,
    clear_run_cache,
    disk_cache_info,
    fleet_stats,
    run_many,
    run_many_settled,
    run_simulation,
    run_speedup,
)

FAST = dict(scale=0.1, iterations=2)


class TestRunMany:
    def test_preserves_order_and_dedups(self):
        clear_run_cache()
        jobs = [
            SimJob("jacobi", "memcpy", 2, **FAST),
            SimJob("jacobi", "gps", 2, **FAST),
            SimJob("jacobi", "memcpy", 2, **FAST),  # duplicate
        ]
        results = run_many(jobs, max_workers=1)
        assert len(results) == 3
        assert results[0] is results[2]
        assert results[0].paradigm == "memcpy"
        assert results[1].paradigm == "gps"

    def test_matches_run_simulation(self):
        clear_run_cache()
        (via_many,) = run_many([SimJob("pagerank", "rdl", 2, **FAST)])
        direct = run_simulation("pagerank", "rdl", 2, **FAST)
        assert via_many is direct  # second call hit the memo

    def test_parallel_equals_serial(self):
        clear_run_cache()
        jobs = [
            SimJob(w, p, 2, **FAST)
            for w in ("jacobi", "pagerank")
            for p in ("memcpy", "gps")
        ]
        parallel = [r.total_time for r in run_many(jobs, max_workers=2)]
        clear_run_cache()
        serial = [r.total_time for r in run_many(jobs, max_workers=1)]
        assert parallel == serial

    def test_accepts_tuples(self):
        clear_run_cache()
        (result,) = run_many([("jacobi", "memcpy", 2, "pcie6", 0.1, 2)])
        assert result.total_time > 0

    def test_malformed_max_workers_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "abc")
        clear_run_cache()
        jobs = [SimJob("jacobi", p, 2, **FAST) for p in ("memcpy", "gps", "um")]
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS .*'abc'"):
            run_many(jobs)

    def test_repeated_configs_fingerprint_once(self, monkeypatch):
        # Satellite regression: a grid repeating the same config as distinct
        # SimJob instances must hash the config once, not once per repeat.
        from repro.harness.runner import fingerprint as fp

        clear_run_cache()
        calls = {"n": 0}
        real_job_key = fp.job_key

        def counting_job_key(*args, **kwargs):
            calls["n"] += 1
            return real_job_key(*args, **kwargs)

        monkeypatch.setattr(fp, "job_key", counting_job_key)
        jobs = [
            SimJob("jacobi", "memcpy", 2, **FAST),
            SimJob("jacobi", "gps", 2, **FAST),
            SimJob("jacobi", "memcpy", 2, **FAST),  # repeat, fresh instance
            SimJob("jacobi", "memcpy", 2, **FAST),  # repeat, fresh instance
        ]
        results = run_many(jobs, max_workers=1)
        assert calls["n"] == 2  # one per *distinct* job
        # ... and the shared result fans back out to every repeat slot.
        assert results[0] is results[2] is results[3]
        assert fleet_stats().jobs_computed == 2


class TestRunManySettled:
    def test_matches_run_many_on_success(self):
        clear_run_cache()
        jobs = [SimJob("jacobi", "memcpy", 2, **FAST), SimJob("jacobi", "gps", 2, **FAST)]
        settled = run_many_settled(jobs, max_workers=1)
        clear_run_cache()
        plain = run_many(jobs, max_workers=1)
        assert [r.total_time for r in settled] == [r.total_time for r in plain]

    def test_failure_lands_in_its_slot(self, monkeypatch):
        from repro.harness.runner import parallel

        clear_run_cache()
        real_compute = parallel.compute_job

        def picky(job, traced=False):
            if job.paradigm == "gps":
                raise RuntimeError("injected failure")
            return real_compute(job, traced)

        monkeypatch.setattr(parallel, "compute_job", picky)
        jobs = [
            SimJob("jacobi", "memcpy", 2, **FAST),
            SimJob("jacobi", "gps", 2, **FAST),
            SimJob("jacobi", "gps", 2, **FAST),  # duplicate shares the failure
        ]
        ok, bad, bad2 = run_many_settled(jobs, max_workers=1)
        assert ok.total_time > 0
        assert isinstance(bad, RuntimeError) and bad is bad2
        assert fleet_stats().jobs_failed == 1
        assert fleet_stats().jobs_computed == 1

    def test_pool_worker_crash_lands_in_its_slot(self):
        # The monkeypatch test above only exercises the serial fallback; a
        # real worker crash crosses a process boundary, so the exception is
        # pickled back from the pool. A fuzz job with iterations=0 raises
        # TraceError inside the worker's build step — a genuine mid-batch
        # poison job, not an injected stub.
        from repro.errors import TraceError

        clear_run_cache()
        jobs = [
            SimJob("jacobi", "memcpy", 2, **FAST),
            SimJob("fuzz/5", "gps", 2, scale=0.1, iterations=0),  # poison
            SimJob("pagerank", "gps", 2, **FAST),
        ]
        before = fleet_stats().jobs_failed
        ok_a, poisoned, ok_b = run_many_settled(jobs, max_workers=2)
        assert ok_a.total_time > 0 and ok_a.paradigm == "memcpy"
        assert ok_b.total_time > 0 and ok_b.program_name == "pagerank"
        assert isinstance(poisoned, TraceError)
        assert fleet_stats().jobs_failed == before + 1
        # The two healthy jobs really went through the pool.
        assert any(
            "(serial)" not in w.worker for w in fleet_stats().workers.values()
        )

    def test_run_many_raises_first_failure(self, monkeypatch):
        from repro.harness.runner import parallel

        clear_run_cache()

        def explode(job, traced=False):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(parallel, "compute_job", explode)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_many([SimJob("jacobi", "memcpy", 2, **FAST)], max_workers=1)


class TestProgramGroupedPool:
    """The pool runs one task per program: a program's jobs share a worker."""

    WORKLOADS = ("jacobi", "pagerank", "sssp")
    PARADIGMS = ("memcpy", "gps", "rdl")

    def grid(self):
        # Interleaved: consecutive jobs never share a program.
        return [SimJob(w, p, 2, **FAST) for p in self.PARADIGMS for w in self.WORKLOADS]

    def test_grid_comes_back_in_input_order(self):
        clear_run_cache()
        jobs = self.grid()
        results = run_many(jobs, max_workers=2)
        assert len(results) == len(jobs)
        for job, result in zip(jobs, results):
            assert (result.program_name, result.paradigm) == (job.workload, job.paradigm)
        assert any("(serial)" not in w.worker for w in fleet_stats().workers.values())
        clear_run_cache()
        serial = run_many(jobs, max_workers=1)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]

    def test_failing_job_fails_only_its_slot(self, monkeypatch):
        from repro.harness.runner import parallel

        clear_run_cache()
        real_compute = parallel.compute_job

        def picky(job, traced=False):
            if (job.workload, job.paradigm) == ("jacobi", "gps"):
                raise RuntimeError("injected failure")
            return real_compute(job, traced)

        monkeypatch.setattr(parallel, "compute_job", picky)  # before the fork
        jobs = self.grid()
        outcomes = run_many_settled(jobs, max_workers=2)
        for job, outcome in zip(jobs, outcomes):
            if (job.workload, job.paradigm) == ("jacobi", "gps"):
                assert isinstance(outcome, RuntimeError)
            else:
                assert outcome.program_name == job.workload
        assert fleet_stats().jobs_failed == 1
        assert fleet_stats().jobs_computed == len(jobs) - 1

    def test_each_program_runs_in_one_worker(self, monkeypatch):
        from repro.harness.runner import parallel

        clear_run_cache()
        real_compute = parallel.compute_job

        def report_pid(job, traced=False):
            result, _ = real_compute(job, False)
            return result, os.getpid()  # rides back in the spans slot

        monkeypatch.setattr(parallel, "compute_job", report_pid)
        jobs = self.grid()
        slots = run_many_settled(jobs, max_workers=2, traced=True)
        pids: "dict[str, set]" = {}
        for job, (_, pid) in zip(jobs, slots):
            pids.setdefault(job.workload, set()).add(pid)
        assert all(len(seen) == 1 for seen in pids.values()), pids
        assert os.getpid() not in set().union(*pids.values())

    @pytest.mark.parametrize(
        "jobs",
        [
            [SimJob("jacobi", "gps", 2, **FAST), SimJob("pagerank", "gps", 2, **FAST)],
            [SimJob("jacobi", p, 2, **FAST) for p in ("memcpy", "gps", "rdl", "um")],
        ],
        ids=["two-jobs-two-programs", "one-program"],
    )
    def test_small_or_single_program_batches_run_serially(self, jobs):
        clear_run_cache()
        run_many(jobs, max_workers=2)
        (worker,) = fleet_stats().workers.values()
        assert "(serial)" in worker.worker
        assert worker.jobs == len(jobs)


class TestProgramIdentity:
    """One build and one fingerprint per program, however many jobs share it."""

    def test_sweep_builds_and_serialises_each_program_once(self, monkeypatch):
        from repro.analysis import footprints
        from repro.config import default_system
        from repro.system.analysis import clear_analysis_cache
        from repro.workloads.registry import WORKLOADS

        clear_run_cache()
        clear_analysis_cache()
        counts = {"build": 0, "to_dict": 0}
        workload = WORKLOADS["jacobi"]
        real_build = type(workload).build
        real_to_dict = footprints.program_to_dict

        def counting_build(self, *args, **kwargs):
            counts["build"] += 1
            return real_build(self, *args, **kwargs)

        def counting_to_dict(program):
            counts["to_dict"] += 1
            return real_to_dict(program)

        monkeypatch.setattr(type(workload), "build", counting_build)
        monkeypatch.setattr(footprints, "program_to_dict", counting_to_dict)
        base = default_system(2)

        def sweep(config):
            return [
                SimJob("jacobi", "gps", 2, config=dataclasses.replace(
                    config,
                    gps=dataclasses.replace(
                        config.gps, write_queue_entries=entries, gps_tlb_entries=tlb
                    ),
                ), **FAST)
                for entries in (32, 128, 512)
                for tlb in (8, 32)
            ]

        run_many(sweep(base), max_workers=1)
        assert counts == {"build": 1, "to_dict": 1}
        run_many(sweep(base.with_page_size(2 * base.page_size)), max_workers=1)
        assert counts == {"build": 1, "to_dict": 2}

    def test_failed_build_is_never_cached(self):
        from repro.errors import TraceError
        from repro.harness.runner.parallel import job_program

        clear_run_cache()
        poison = SimJob("fuzz/5", "gps", 2, scale=0.1, iterations=0)
        for _ in range(2):
            with pytest.raises(TraceError):
                job_program(poison)

    def test_clear_run_cache_drops_programs(self):
        from repro.harness.runner.parallel import job_program

        clear_run_cache()
        first = job_program(SimJob("jacobi", "gps", 2, **FAST))
        assert job_program(SimJob("stencil", "memcpy", 2, **FAST)) is first  # alias
        clear_run_cache()
        assert job_program(SimJob("jacobi", "gps", 2, **FAST)) is not first

    def test_program_memo_is_bounded(self, monkeypatch):
        from repro.harness.runner import parallel

        clear_run_cache()
        monkeypatch.setattr(parallel, "ANALYSIS_CACHE_SIZE", 2)
        jobs = [SimJob("jacobi", "gps", gpus, **FAST) for gpus in (1, 2, 4)]
        programs = [parallel.job_program(job) for job in jobs]
        assert len(parallel._PROGRAMS) == 2
        assert parallel.job_program(jobs[2]) is programs[2]
        assert parallel.job_program(jobs[0]) is not programs[0]  # evicted first
        clear_run_cache()


class TestResultMemoBound:
    def test_threads_share_the_lru_safely(self, monkeypatch):
        # The service looks results up on its event loop while its runner
        # thread stores them: neither may see a torn LRU.
        import sys
        import threading

        from repro.harness.runner import memo

        clear_run_cache()
        monkeypatch.setattr(memo, "RESULT_MEMO_SIZE", 8)
        errors, wrong = [], []

        def churn(worker):
            try:
                for i in range(2000):
                    key = f"k{(i * 7 + worker) % 24}"
                    found = memo.lookup(key)
                    if found is None:
                        memo.store(key, key)
                    elif found != key:
                        wrong.append((key, found))
                    if len(memo._RESULT_CACHE) > 9:  # one store may be mid-trim
                        wrong.append(len(memo._RESULT_CACHE))
            except Exception as exc:  # a lost race surfaces as KeyError etc.
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert len(memo._RESULT_CACHE) <= 8
        clear_run_cache()

    def test_memory_layer_is_an_lru(self, monkeypatch):
        from repro.harness.runner import memo, parallel

        clear_run_cache()
        monkeypatch.setattr(memo, "RESULT_MEMO_SIZE", 3)
        monkeypatch.setattr(
            parallel, "compute_job", lambda job, traced=False: (f"result-{job.iterations}", None)
        )
        jobs = [SimJob("jacobi", "gps", 2, scale=0.1, iterations=i) for i in range(1, 7)]
        first = run_many(jobs[:3], max_workers=1)
        assert run_many([jobs[0]], max_workers=1)[0] is first[0]  # hit refreshes jobs[0]
        for job in jobs[3:]:
            run_many([job], max_workers=1)
            assert len(memo._RESULT_CACHE) <= 3
        assert list(memo._RESULT_CACHE) == [job.key() for job in jobs[3:]]
        run_many([jobs[4]], max_workers=1)
        run_many([SimJob("jacobi", "gps", 2, scale=0.1, iterations=9)], max_workers=1)
        assert jobs[3].key() not in memo._RESULT_CACHE  # oldest goes first
        assert jobs[4].key() in memo._RESULT_CACHE  # a hit made it recent
        clear_run_cache()


class TestFleetStats:
    def test_serial_accounting(self):
        clear_run_cache()
        jobs = [
            SimJob("jacobi", "memcpy", 2, **FAST),
            SimJob("jacobi", "gps", 2, **FAST),
            SimJob("jacobi", "memcpy", 2, **FAST),  # in-batch duplicate
        ]
        run_many(jobs, max_workers=1)
        fleet = fleet_stats()
        assert fleet.runs == 1
        assert fleet.jobs_submitted == 3
        assert fleet.jobs_cached == 1  # the duplicate never reaches a worker
        assert fleet.jobs_computed == 2
        assert fleet.wall_clock > 0
        (worker,) = fleet.workers.values()
        assert worker.jobs == 2
        assert "(serial)" in worker.worker

    def test_warm_second_call_counts_cached(self):
        clear_run_cache()
        jobs = [SimJob("jacobi", "memcpy", 2, **FAST)]
        run_many(jobs)
        run_many(jobs)
        fleet = fleet_stats()
        assert fleet.runs == 2
        assert fleet.jobs_submitted == 2
        assert fleet.jobs_cached == 1
        assert fleet.jobs_computed == 1

    def test_clear_run_cache_resets(self):
        clear_run_cache()
        run_many([SimJob("jacobi", "memcpy", 2, **FAST)])
        assert fleet_stats().runs == 1
        clear_run_cache()
        fleet = fleet_stats()
        assert fleet.runs == 0
        assert fleet.jobs_submitted == 0
        assert not fleet.workers

    def test_as_dict_and_report(self):
        clear_run_cache()
        run_many([SimJob("jacobi", "gps", 2, **FAST)])
        fleet = fleet_stats()
        payload = json.loads(json.dumps(fleet.as_dict()))
        assert payload["jobs_computed"] == 1
        (worker,) = payload["workers"]
        assert worker["jobs"] == 1
        assert fleet.report().startswith("fleet: 1 run_many call(s)")


class TestBaselineParadigm:
    def test_all_non_fault_paradigms_agree_on_one_gpu(self):
        # The assumption behind the default memcpy baseline, made explicit:
        # on one GPU there is no communication, so every paradigm except
        # fault-based UM (which pays first-touch population) matches memcpy.
        clear_run_cache()
        times = {
            p: run_simulation("jacobi", p, 1, **FAST).total_time
            for p in sorted(repro.PARADIGMS)
        }
        for paradigm, total_time in times.items():
            if paradigm == "um":
                assert total_time > times["memcpy"]
            else:
                assert total_time == times["memcpy"], paradigm

    def test_baseline_paradigm_kwarg(self):
        clear_run_cache()
        default = run_speedup("jacobi", "gps", 4, **FAST)
        explicit = run_speedup("jacobi", "gps", 4, baseline_paradigm="memcpy", **FAST)
        um_base = run_speedup("jacobi", "gps", 4, baseline_paradigm="um", **FAST)
        assert default == explicit
        assert um_base > default  # UM's 1-GPU run is slower, inflating speedup


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """A live persistent cache in a temp directory (overrides the suite-wide
    REPRO_NO_CACHE isolation)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_run_cache()
    yield tmp_path
    clear_run_cache()


class TestDiskCache:
    def test_writes_records(self, disk_cache):
        run_simulation("jacobi", "memcpy", 2, **FAST)
        info = disk_cache_info()
        assert info["enabled"]
        assert info["entries"] == 1
        record = json.loads(next(disk_cache.glob("*.json")).read_text())
        assert record["job"]["workload"] == "jacobi"
        assert record["model"].startswith("repro-model/")

    def test_round_trip_after_memory_clear(self, disk_cache):
        a = run_simulation("ct", "gps", 4, **FAST)
        clear_run_cache()  # drops the memo, keeps the disk records
        b = run_simulation("ct", "gps", 4, **FAST)
        assert a is not b
        assert cache_stats().disk_hits == 1
        assert b.total_time == a.total_time
        assert b.interconnect_bytes == a.interconnect_bytes
        assert b.subscriber_histogram == a.subscriber_histogram
        assert [p.duration for p in b.phases] == [p.duration for p in a.phases]
        assert [s.hit_rate for s in b.write_queue_stats] == [
            s.hit_rate for s in a.write_queue_stats
        ]
        assert b.extras == a.extras

    def test_corrupt_record_recomputed(self, disk_cache):
        run_simulation("jacobi", "memcpy", 2, **FAST)
        path = next(disk_cache.glob("*.json"))
        path.write_text("{not json")
        clear_run_cache()
        result = run_simulation("jacobi", "memcpy", 2, **FAST)
        assert result.total_time > 0
        stats = cache_stats()
        assert stats.disk_errors == 1
        assert stats.evictions == 1
        assert stats.misses == 1

    def test_non_dict_json_record_recomputed(self, disk_cache):
        # Satellite hardening: a record that parses as JSON but is not an
        # object (e.g. a truncated-then-rewritten file, or a concurrent
        # writer losing a race) must read as a miss, never raise.
        run_simulation("jacobi", "memcpy", 2, **FAST)
        path = next(disk_cache.glob("*.json"))
        for garbage in ('"just-a-string"', "[1, 2, 3]", "null", '{"job": {}}'):
            path.write_text(garbage)
            clear_run_cache()
            result = run_simulation("jacobi", "memcpy", 2, **FAST)
            assert result.total_time > 0
            stats = cache_stats()
            assert stats.disk_errors == 1, garbage
            assert stats.misses == 1, garbage
        # Non-dict payloads are also skipped (not fatal) when enumerating.
        path.write_text('"just-a-string"')
        info = disk_cache_info()
        assert info["enabled"]

    def test_evicted_result_falls_through_to_disk(self, disk_cache, monkeypatch):
        from repro.harness.runner import memo

        monkeypatch.setattr(memo, "RESULT_MEMO_SIZE", 1)
        first = run_simulation("jacobi", "memcpy", 2, **FAST)
        run_simulation("jacobi", "gps", 2, **FAST)  # evicts the memcpy result
        again = run_simulation("jacobi", "memcpy", 2, **FAST)
        assert again is not first
        assert cache_stats().disk_hits == 1
        assert again.to_dict() == first.to_dict()

    def test_clear_disk_cache(self, disk_cache):
        run_simulation("jacobi", "memcpy", 2, **FAST)
        run_simulation("jacobi", "gps", 2, **FAST)
        assert clear_disk_cache() == 2
        assert disk_cache_info()["entries"] == 0

    def test_no_cache_env_disables(self, disk_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_simulation("jacobi", "memcpy", 2, **FAST)
        assert not disk_cache_info()["enabled"]
        assert list(disk_cache.glob("*.json")) == []


class TestCacheStats:
    def test_counters(self):
        clear_run_cache()
        run_simulation("jacobi", "memcpy", 2, **FAST)
        run_simulation("jacobi", "memcpy", 2, **FAST)
        stats = cache_stats()
        assert stats.misses == 1
        assert stats.memory_hits == 1
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert "hit rate" in stats.report()
        assert stats.as_dict()["lookups"] == 2

    def test_clear_resets_stats_and_handle(self, tmp_path, monkeypatch):
        # Satellite: clear_run_cache must reset the disk handle *and* the
        # counters, so the clear-between-mutations pattern stays sound.
        clear_run_cache()
        run_simulation("jacobi", "memcpy", 2, **FAST)
        assert cache_stats().lookups == 1
        monkeypatch.setenv("REPRO_NO_CACHE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_run_cache()
        assert cache_stats().lookups == 0
        run_simulation("jacobi", "memcpy", 2, **FAST)
        # The re-resolved handle honours the new environment.
        assert disk_cache_info()["directory"] == str(tmp_path)
        assert disk_cache_info()["entries"] == 1
