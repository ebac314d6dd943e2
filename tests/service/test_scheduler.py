"""Scheduler tests: per-group dispatch, lost-worker retry, graceful drain.

A stub runner stands in for ``run_many_settled`` so these tests exercise
scheduling policy (dispatch order, retry bookkeeping, drain barriers)
without paying for real simulations.
"""

import asyncio
import threading
from concurrent.futures.process import BrokenProcessPool

from repro.harness.runner import SimJob, clear_run_cache
from repro.harness.runner.parallel import WorkerPool
from repro.service import JobQueue, JobState, Scheduler, ServiceMetrics
from repro.service.scheduler import LOST_WORKER_RETRIES

FAST = dict(scale=0.1, iterations=2)


def sim(gpus=2, **kwargs):
    return SimJob("jacobi", "gps", gpus, **{**FAST, **kwargs})


class StubRunner:
    """Records calls; fails each fingerprint a configurable number of times.

    Called like ``run_many_settled(sims, max_workers, traced=True, pool=None)``:
    one ``(outcome, spans)`` pair per simulation, with no engine spans. A
    failure is ``error(attempt)``: a lost worker unless a test says otherwise.
    """

    def __init__(self, fail_times=0, error=lambda n: BrokenProcessPool(f"boom #{n}")):
        self.calls = []
        self.fail_times = fail_times
        self.error = error
        self.failures = {}

    def __call__(self, sims, max_workers=None, traced=False, pool=None):
        self.calls.append((list(sims), max_workers))
        outcomes = []
        for job in sims:
            key = job.key()
            seen = self.failures.get(key, 0)
            if seen < self.fail_times:
                self.failures[key] = seen + 1
                outcomes.append(self.error(seen + 1))
            else:
                outcomes.append(f"result-for-{key[:8]}")
        return [(outcome, None) for outcome in outcomes]


def make_stack(runner, pool=None):
    clear_run_cache()  # a warm memo would answer jobs before the stub sees them
    metrics = ServiceMetrics()
    queue = JobQueue(metrics, max_depth=32)
    return queue, Scheduler(queue, pool=pool, runner=runner), metrics


class TestDispatch:
    def test_each_group_dispatches_on_its_own(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, metrics = make_stack(runner)
            jobs = [queue.submit(sim(gpus=g)) for g in (1, 2, 4)]
            scheduler.start()
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in jobs))
            await scheduler.stop()
            # One runner call per group, in queue order; without a pool the
            # width is 1.
            assert runner.calls == [([j.sim], 1) for j in jobs]
            snapshot = metrics.snapshot()
            assert len(runner.calls) == (
                snapshot["service.queue.accepted"] + snapshot["service.jobs.retried"]
            )

        asyncio.run(body())

    def test_lone_job_dispatches_without_waiting(self):
        runner = StubRunner()

        async def body():
            queue, scheduler, _ = make_stack(runner)
            a = queue.submit(sim(gpus=1))
            scheduler.start()
            await asyncio.sleep(0.01)
            b = queue.submit(sim(gpus=2))
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in (a, b)))
            await scheduler.stop()
            # Nothing holds the first dispatch open for a companion.
            assert runner.calls == [([a.sim], 1), ([b.sim], 1)]

        asyncio.run(body())

    def test_fast_group_settles_before_slow_one(self):
        # Two gated groups hold both slots of a pool that never forks (the
        # stub never submits to it); a slow and a fast group queue behind.
        gate, slow_gate = threading.Event(), threading.Event()
        entered = threading.Semaphore(0)

        def runner(sims, max_workers=None, traced=False, pool=None):
            # A call returns once its last simulation is done.
            gpus = {job.num_gpus for job in sims}
            for _ in gpus & {1, 2}:
                entered.release()
            if gpus & {1, 2}:
                gate.wait(10)
            if 4 in gpus:
                slow_gate.wait(10)
            return [(f"result-{job.num_gpus}", None) for job in sims]

        async def body():
            queue, scheduler, _ = make_stack(runner, pool=WorkerPool(2))
            held = [queue.submit(sim(gpus=g)) for g in (1, 2)]
            slow, fast = queue.submit(sim(gpus=4)), queue.submit(sim(gpus=8))
            scheduler.start()
            for _ in held:
                assert await asyncio.to_thread(entered.acquire, True, 5)
            assert [job.state for job in (slow, fast)] == [JobState.QUEUED] * 2
            gate.set()
            assert await asyncio.wait_for(fast.future, 5) == "result-8"
            # The fast group settled on its own; the slow one still runs.
            assert fast.state is JobState.DONE
            assert slow.state is JobState.RUNNING
            slow_gate.set()
            assert await asyncio.wait_for(slow.future, 5) == "result-4"
            await scheduler.stop()

        try:
            asyncio.run(body())
        finally:
            gate.set()
            slow_gate.set()


class TestRetry:
    def test_transient_failure_retries_then_succeeds(self):
        runner = StubRunner(fail_times=1)  # the worker is lost once

        async def body():
            queue, scheduler, metrics = make_stack(runner)
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
            queue, scheduler, metrics = make_stack(runner)
            first = queue.submit(sim(gpus=1))
            later = queue.submit(sim(gpus=2))
            monkeypatch.setattr(asyncio, "sleep", no_sleep)
            scheduler.start()
            await asyncio.gather(*(asyncio.wait_for(j.future, 5) for j in (first, later)))
            await scheduler.stop()
            # Each group loses its worker once; a retried group re-enters at
            # its original seq, so `first` retries before `later` runs.
            sims = [first.sim, first.sim, later.sim, later.sim]
            assert runner.calls == [([s], 1) for s in sims]
            assert first.attempts == 1
            assert metrics.snapshot()["service.jobs.retried"] == 2

        asyncio.run(body())

    def test_retries_exhausted_fails_job(self):
        runner = StubRunner(fail_times=10)

        async def body():
            queue, scheduler, metrics = make_stack(runner)
            job = queue.submit(sim())
            scheduler.start()
            try:
                await asyncio.wait_for(job.future, 5)
            except BrokenProcessPool:
                pass
            await scheduler.stop()
            assert job.state is JobState.FAILED
            assert job.error == "BrokenProcessPool: boom #2"
            assert job.attempts == 1 + LOST_WORKER_RETRIES == 2
            assert len(runner.calls) == 2
            assert metrics.snapshot()["service.jobs.failed"] == 1

        asyncio.run(body())

    def test_simulation_error_is_not_retried(self):
        # A simulation's own exception is deterministic: one attempt only.
        runner = StubRunner(fail_times=10, error=lambda n: RuntimeError(f"boom #{n}"))

        async def body():
            queue, scheduler, metrics = make_stack(runner)
            job = queue.submit(sim())
            scheduler.start()
            try:
                await asyncio.wait_for(job.future, 5)
            except RuntimeError:
                pass
            await scheduler.stop()
            assert job.state is JobState.FAILED
            assert job.error == "RuntimeError: boom #1"
            assert job.attempts == 1
            assert len(runner.calls) == 1
            snapshot = metrics.snapshot()
            assert snapshot["service.jobs.retried"] == 0
            assert snapshot["service.jobs.failed"] == 1

        asyncio.run(body())

    def test_runner_that_raises_fails_the_group(self):
        def broken(sims, max_workers=None, traced=False, pool=None):
            raise OSError("runner broke")

        async def body():
            queue, scheduler, _ = make_stack(broken)
            job = queue.submit(sim())
            scheduler.start()
            try:
                await asyncio.wait_for(job.future, 5)
            except OSError:
                pass
            await scheduler.stop()
            assert job.state is JobState.FAILED
            assert job.error == "OSError: runner broke"
            assert queue.inflight == 0

        asyncio.run(body())

    def test_one_bad_job_does_not_poison_batch(self):
        class OneBadApple(StubRunner):
            def __call__(self, sims, max_workers=None, traced=False, pool=None):
                self.calls.append((list(sims), max_workers))
                return [
                    (RuntimeError("always broken") if job.num_gpus == 1
                     else f"result-for-{job.key()[:8]}", None)
                    for job in sims
                ]

        runner = OneBadApple()

        async def body():
            queue, scheduler, _ = make_stack(runner)
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
            queue, scheduler, _ = make_stack(runner)
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
            assert runner.calls == []

        asyncio.run(body())

    def test_stop_without_drain_settles_the_running_batch(self):
        # The runner thread is still busy when stop(drain=False) cancels the
        # loop: its jobs must fail with the stop, not read "running" forever.
        release = threading.Event()
        started = threading.Event()

        def blocked(sims, max_workers=None, traced=False, pool=None):
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

    def test_stop_without_drain_settles_a_group_not_yet_started(self):
        # The loop pops the job and creates its task; stop(drain=False)
        # cancels that task before its first step, so the runner never runs.
        runner = StubRunner()

        async def body():
            queue, scheduler, _ = make_stack(runner)
            job = queue.submit(sim())
            scheduler.start()
            await asyncio.sleep(0)  # one loop step: popped, not yet run
            assert job.state is JobState.RUNNING and queue.depth == 0
            queue.close()
            await scheduler.stop(drain=False)
            assert job.state is JobState.FAILED
            assert "shut down" in job.error
            assert queue.inflight == 0
            assert runner.calls == []

        asyncio.run(body())
