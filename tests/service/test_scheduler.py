"""Scheduler tests: batch packing, per-job retry, graceful drain.

A stub runner stands in for ``run_many_settled`` so these tests exercise
scheduling policy (batch packing, retry bookkeeping, drain barriers)
without paying for real simulations.
"""

import asyncio
import threading

from repro.harness.runner import SimJob, clear_run_cache
from repro.service import BatchScheduler, JobQueue, JobState, ServiceMetrics

FAST = dict(scale=0.1, iterations=2)


def sim(gpus=2, **kwargs):
    return SimJob("jacobi", "gps", gpus, **{**FAST, **kwargs})


class StubRunner:
    """Records batches; fails each fingerprint a configurable number of times.

    Called like ``run_many_settled(sims, max_workers, traced=True)``: one
    ``(outcome, spans)`` pair per simulation, with no engine spans.
    """

    def __init__(self, fail_times=0):
        self.batches = []
        self.fail_times = fail_times
        self.failures = {}

    def __call__(self, sims, max_workers=None, traced=False):
        self.batches.append(list(sims))
        outcomes = []
        for job in sims:
            key = job.key()
            seen = self.failures.get(key, 0)
            if seen < self.fail_times:
                self.failures[key] = seen + 1
                outcomes.append(RuntimeError(f"boom #{seen + 1}"))
            else:
                outcomes.append(f"result-for-{key[:8]}")
        return [(outcome, None) for outcome in outcomes]


def make_stack(runner, **kwargs):
    clear_run_cache()  # a warm memo would answer jobs before the stub sees them
    metrics = ServiceMetrics()
    queue = JobQueue(metrics, max_depth=32)
    defaults = dict(batch_size=4, max_retries=2)
    scheduler = BatchScheduler(queue, metrics, runner=runner, **{**defaults, **kwargs})
    return queue, scheduler, metrics


class TestBatching:
    def test_packs_queued_jobs_into_one_batch(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, metrics = make_stack(runner)
            jobs = [queue.submit(sim(gpus=g)) for g in (1, 2, 4)]
            scheduler.start()
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in jobs))
            await scheduler.stop()
            assert len(runner.batches) == 1
            assert len(runner.batches[0]) == 3
            snapshot = metrics.snapshot()
            assert snapshot["service.scheduler.batches"] == 1
            assert snapshot["service.scheduler.batched_jobs"] == 3

        asyncio.run(body())

    def test_lone_job_dispatches_without_waiting(self):
        runner = StubRunner()

        async def body():
            clear_run_cache()
            metrics = ServiceMetrics()
            queue = JobQueue(metrics)
            scheduler = BatchScheduler(queue, metrics, runner=runner)
            a = queue.submit(sim(gpus=1))
            scheduler.start()
            await asyncio.sleep(0.01)
            b = queue.submit(sim(gpus=2))
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in (a, b)))
            await scheduler.stop()
            # Nothing holds the first batch open for a batch-mate.
            assert runner.batches == [[a.sim], [b.sim]]

        asyncio.run(body())

    def test_oversized_backlog_splits_into_batches(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, _ = make_stack(runner, batch_size=2)
            jobs = [queue.submit(sim(gpus=2**i)) for i in range(5)]
            scheduler.start()
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in jobs))
            await scheduler.stop()
            assert all(len(batch) <= 2 for batch in runner.batches)
            assert sum(len(b) for b in runner.batches) == 5

        asyncio.run(body())


class TestRetry:
    def test_transient_failure_retries_then_succeeds(self):
        runner = StubRunner(fail_times=1)

        async def body():
            queue, scheduler, metrics = make_stack(runner, max_retries=2)
            job = queue.submit(sim())
            scheduler.start()
            result = await asyncio.wait_for(job.future, 5)
            await scheduler.stop()
            assert result.startswith("result-for-")
            assert job.state is JobState.DONE
            assert job.attempts == 1
            assert metrics.snapshot()["service.jobs.retried"] == 1

        asyncio.run(body())

    def test_retry_requeues_at_once_ahead_of_later_work(self, monkeypatch):
        runner = StubRunner(fail_times=1)

        async def no_sleep(delay, result=None):
            raise AssertionError(f"scheduler slept {delay} s")

        async def body():
            queue, scheduler, metrics = make_stack(runner, batch_size=1)
            first = queue.submit(sim(gpus=1))
            later = queue.submit(sim(gpus=2))
            monkeypatch.setattr(asyncio, "sleep", no_sleep)
            scheduler.start()
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in (first, later)))
            await scheduler.stop()
            # Each group fails once; a failed group re-enters at its
            # original seq, so `first` retries before `later` runs.
            assert runner.batches == [[first.sim], [first.sim], [later.sim], [later.sim]]
            assert first.attempts == 1
            assert metrics.snapshot()["service.jobs.retried"] == 2

        asyncio.run(body())

    def test_retries_exhausted_fails_job(self):
        runner = StubRunner(fail_times=10)

        async def body():
            queue, scheduler, metrics = make_stack(runner, max_retries=2)
            job = queue.submit(sim())
            scheduler.start()
            try:
                await asyncio.wait_for(job.future, 5)
            except RuntimeError:
                pass
            await scheduler.stop()
            assert job.state is JobState.FAILED
            assert "boom" in job.error
            assert job.attempts == 3  # initial + 2 retries
            # 3 attempts total: the runner saw the job three times.
            assert sum(len(b) for b in runner.batches) == 3
            assert metrics.snapshot()["service.jobs.failed"] == 1

        asyncio.run(body())

    def test_one_bad_job_does_not_poison_batch(self):
        class OneBadApple(StubRunner):
            def __call__(self, sims, max_workers=None, traced=False):
                self.batches.append(list(sims))
                return [
                    (RuntimeError("always broken") if job.num_gpus == 1
                     else f"result-for-{job.key()[:8]}", None)
                    for job in sims
                ]

        runner = OneBadApple()

        async def body():
            queue, scheduler, _ = make_stack(runner, max_retries=1)
            bad = queue.submit(sim(gpus=1))
            good = queue.submit(sim(gpus=2))
            scheduler.start()
            result = await asyncio.wait_for(good.future, 5)
            assert result.startswith("result-for-")
            try:
                await asyncio.wait_for(bad.future, 5)
            except RuntimeError:
                pass
            await scheduler.stop()
            assert good.state is JobState.DONE
            assert bad.state is JobState.FAILED

        asyncio.run(body())


class TestDrain:
    def test_stop_drains_backlog(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, _ = make_stack(runner, batch_size=2)
            jobs = [queue.submit(sim(gpus=2**i)) for i in range(4)]
            scheduler.start()
            queue.close()
            await scheduler.stop(drain=True)
            assert all(j.state is JobState.DONE for j in jobs)

        asyncio.run(body())

    def test_stop_without_drain_aborts_queued(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, _ = make_stack(runner)
            # The scheduler is never started, so the jobs sit queued.
            jobs = [queue.submit(sim(gpus=2**i)) for i in range(3)]
            queue.close()
            await scheduler.stop(drain=False)
            assert all(j.state is JobState.FAILED for j in jobs)
            assert runner.batches == []

        asyncio.run(body())

    def test_stop_without_drain_settles_the_running_batch(self):
        # The runner thread is still busy when stop(drain=False) cancels the
        # loop: its jobs must fail with the stop, not read "running" forever.
        release = threading.Event()
        started = threading.Event()

        def blocked(sims, max_workers=None, traced=False):
            started.set()
            release.wait(10)
            return [("late", None) for _ in sims]

        async def body():
            queue, scheduler, _ = make_stack(blocked)
            job = queue.submit(sim())
            scheduler.start()
            await asyncio.to_thread(started.wait, 5)
            assert job.state is JobState.RUNNING
            queue.close()
            await scheduler.stop(drain=False)
            assert job.state is JobState.FAILED
            assert "shut down" in job.error
            assert job.future.done()
            assert queue.inflight == 0
            release.set()  # let the runner thread finish before the loop closes

        try:
            asyncio.run(body())
        finally:
            release.set()
