"""The service's one warm worker pool: jobs side by side, crashes, shutdown.

A service with 2 workers keeps one :class:`WorkerPool` for its whole life
and keeps up to two job groups in flight on it. Gated runners (held in the
server's runner threads) and a compute function that kills its worker with
``os._exit`` (patched in before the pool forks) drive each case.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness.runner import SimJob, clear_run_cache, run_many_settled
from repro.harness.runner import parallel
from repro.harness.runner.parallel import WorkerPool
from repro.obs.host import HOST
from repro.service import JobQueue, JobState, Scheduler, ServiceMetrics

from .conftest import LiveService

FAST = dict(scale=0.1, iterations=2, gpus=2)


def _until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _wait_for(path, timeout=30.0):
    """Poll for ``path`` from inside a worker process."""
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


@pytest.fixture
def pooled(fast_settings):
    """A live service on a 2-worker pool; joined (and checked) on the way out."""
    clear_run_cache()
    live = LiveService(dataclasses.replace(fast_settings, max_workers=2))
    yield live
    live.stop(drain=False)
    clear_run_cache()
    assert multiprocessing.active_children() == []


def _gate(live):
    """Hold every dispatch in its runner thread until ``release`` is set."""
    release = threading.Event()

    def runner(sims, max_workers=None, traced=False, pool=None):
        release.wait(30)
        return run_many_settled(sims, max_workers, traced=traced, pool=pool)

    live.service.scheduler._runner = runner
    return release


class TestBatchesSideBySide:
    def test_two_distinct_jobs_run_at_once(self, pooled):
        release = _gate(pooled)
        client = pooled.client()
        try:
            a = client.submit("jacobi", **FAST)
            b = client.submit("pagerank", **FAST)
            # With one job at a time, b would sit queued behind a.
            _until(lambda: {client.status(j["id"])["state"] for j in (a, b)} == {"running"})
            assert client.healthz()["inflight"] == 2
        finally:
            release.set()
        assert client.wait(a["id"])["state"] == "done"
        assert client.wait(b["id"])["state"] == "done"

    def test_counts_are_exact_under_concurrent_batches(self, pooled):
        # Both jobs settle on their own runner threads at once.
        barrier = threading.Barrier(2, timeout=30)

        def runner(sims, max_workers=None, traced=False, pool=None):
            barrier.wait()
            return run_many_settled(sims, max_workers, traced=traced, pool=pool)

        pooled.service.scheduler._runner = runner
        client = pooled.client()
        tickets = [client.submit(name, **FAST) for name in ("jacobi", "pagerank")]
        for ticket in tickets:
            assert client.wait(ticket["id"])["state"] == "done"
        metrics = client.metrics()
        # One dispatch per accepted job, none retried.
        assert metrics["service.queue.accepted"] == 2
        assert metrics["service.jobs.retried"] == 0
        assert metrics["service.jobs.completed"] == 2
        assert metrics["host.fleet.jobs_computed"] == 2
        # One lookup at submit (the cache-hit check) and one in the runner.
        assert metrics["host.results.misses"] == 2 * 2
        assert metrics["host.fleet.workers.w0.jobs"] + metrics["host.fleet.workers.w1.jobs"] == 2


class TestWorkerLoss:
    def test_killed_worker_fails_its_job_and_the_pool_is_rebuilt(
        self, pooled, monkeypatch, tmp_path
    ):
        real = parallel.compute_job
        started, crashed, release = (tmp_path / n for n in ("started", "crashed", "release"))

        def crashing(job, traced=False):
            if job.workload == "sssp":  # the poison job: kills its worker
                if crashed.exists():
                    _wait_for(release)  # a retry: crash once the innocent job is done
                else:
                    _wait_for(started)  # first attempt: crash while the innocent job runs
                    crashed.touch()
                os._exit(1)
            if job.workload == "pagerank" and not started.exists():
                started.touch()
                time.sleep(30)  # terminated with its broken pool
            return real(job, traced)

        # Patched before the first job, so the pool's workers fork with it.
        monkeypatch.setattr(parallel, "compute_job", crashing)
        client = pooled.client()
        poison = client.submit("sssp", **FAST)
        innocent = client.submit("pagerank", **FAST)

        payload = client.wait(innocent["id"], timeout=60)
        assert payload["state"] == "done"
        status = client.status(innocent["id"])
        assert status["attempts"] == 1  # lost once with the first pool, then retried
        direct, _ = real(SimJob("pagerank", "gps", 2, scale=0.1, iterations=2))
        assert payload["result"] == json.loads(json.dumps(direct.to_dict()))

        release.touch()
        _until(lambda: client.status(poison["id"])["state"] == "failed", timeout=60)
        status = client.status(poison["id"])
        assert status["attempts"] == 2  # the first try and its one retry
        assert "BrokenProcessPool" in status["error"]

        # A fresh pool serves the next job.
        fresh = client.submit("jacobi", **FAST)
        assert client.wait(fresh["id"], timeout=60)["state"] == "done"
        assert len(multiprocessing.active_children()) == 2


    def test_concurrent_submits_shut_a_broken_pool_down_once(self, monkeypatch):
        # Two runner threads find the pool broken at once: one of them
        # replaces it, and it is shut down once (twice closes its pipes
        # twice, and the second close raises EBADF in that thread).
        both_inside = threading.Barrier(2, timeout=10)
        shutdowns = []

        class Broken:
            def submit(self, fn, *args):
                both_inside.wait()
                raise BrokenProcessPool("a worker was lost")

            def shutdown(self, wait=True, cancel_futures=False):
                shutdowns.append(self)

        class Fresh:
            def submit(self, fn, *args):
                return "submitted"

        executors = iter([Broken(), Fresh()])
        monkeypatch.setattr(parallel, "_open_pool", lambda workers: next(executors))
        pool = WorkerPool(2)
        with ThreadPoolExecutor(2) as threads:
            submitted = list(threads.map(lambda _: pool.submit(print), range(2)))
        assert submitted == ["submitted", "submitted"]
        assert len(shutdowns) == 1


class TestLifecycle:
    def test_no_pool_before_the_first_batch(self, pooled):
        assert pooled.client().healthz()["status"] == "ok"
        assert multiprocessing.active_children() == []
        client = pooled.client()
        assert client.wait(client.submit("jacobi", **FAST)["id"])["state"] == "done"
        assert len(multiprocessing.active_children()) == 2

    def test_one_worker_runs_in_process(self, live_service):
        assert live_service.service.pool is None
        client = live_service.client()
        assert client.wait(client.submit("jacobi", **FAST)["id"])["state"] == "done"
        assert multiprocessing.active_children() == []

    def test_shutdown_joins_every_worker(self, fast_settings):
        clear_run_cache()
        live = LiveService(dataclasses.replace(fast_settings, max_workers=2))
        client = live.client()
        tickets = [client.submit(name, **FAST) for name in ("jacobi", "pagerank", "sssp")]
        live.stop(drain=True)
        assert all(live.service.queue.get(t["id"]).state is JobState.DONE for t in tickets)
        assert multiprocessing.active_children() == []
        clear_run_cache()

    def test_stop_without_drain_fails_every_batch_in_flight(self):
        release = threading.Event()
        entered = threading.Semaphore(0)

        def blocked(sims, max_workers=None, traced=False, pool=None):
            entered.release()
            release.wait(10)
            return [("late", None) for _ in sims]

        async def body():
            clear_run_cache()
            metrics = ServiceMetrics()
            queue = JobQueue(metrics)
            # The stub never submits, so the pool never forks.
            scheduler = Scheduler(queue, pool=WorkerPool(2), runner=blocked)
            jobs = [queue.submit(SimJob(name, "gps", 2, scale=0.1, iterations=2))
                    for name in ("jacobi", "pagerank")]
            scheduler.start()
            for _ in jobs:
                assert await asyncio.to_thread(entered.acquire, True, 5)
            assert [job.state for job in jobs] == [JobState.RUNNING] * 2
            queue.close()
            await scheduler.stop(drain=False)
            for job in jobs:
                assert job.state is JobState.FAILED
                assert job.error.startswith("ServiceClosed")
            assert queue.inflight == 0
            release.set()  # let the runner threads finish before the loop closes

        try:
            asyncio.run(body())
        finally:
            release.set()


def test_worker_names_stay_bounded_over_pooled_calls():
    # Each call forks its own pool; its workers take the slots w0 and w1.
    jobs = [SimJob(name, "gps", 2, scale=0.1, iterations=2)
            for name in ("jacobi", "pagerank", "sssp")]
    clear_run_cache()
    run_many_settled(jobs, max_workers=2)
    names = len(HOST.as_dict())
    for _ in range(4):
        clear_run_cache()
        run_many_settled(jobs, max_workers=2)
        assert len(HOST.as_dict()) == names
    workers = {name for name in HOST.as_dict() if name.startswith("host.fleet.workers.")}
    assert workers <= {f"host.fleet.workers.{w}.{c}"
                       for w in ("w0", "w1", "serial") for c in ("jobs", "wall_s")}
