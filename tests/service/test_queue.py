"""Unit tests for the priority job queue: coalescing, backpressure, order."""

import asyncio

import pytest

from repro.harness.runner import SimJob, clear_run_cache, run_simulation
from repro.service import JobQueue, JobState, QueueFull, ServiceClosed, ServiceMetrics

FAST = dict(scale=0.1, iterations=2)


def sim(workload="jacobi", paradigm="gps", gpus=2, **kwargs):
    return SimJob(workload, paradigm, gpus, **{**FAST, **kwargs})


def in_loop(coro_fn):
    """Run an async test body inside a fresh event loop."""
    return asyncio.run(coro_fn())


@pytest.fixture
def queue():
    clear_run_cache()
    metrics = ServiceMetrics()
    yield JobQueue(metrics, max_depth=4), metrics
    clear_run_cache()  # later suites' stub runners expect a cold memo


class TestSubmit:
    def test_accepts_and_tracks(self, queue):
        q, _ = queue

        async def body():
            job = q.submit(sim())
            assert job.state is JobState.QUEUED
            assert job.id == "job-000001"
            assert not job.coalesced and not job.cache_hit
            assert q.depth == 1 and q.inflight == 1
            assert q.get(job.id) is job
            assert q.get("job-999999") is None

        in_loop(lambda: body())

    def test_coalesces_identical_fingerprints(self, queue):
        q, metrics = queue

        async def body():
            a = q.submit(sim())
            b = q.submit(sim())
            assert b.coalesced and not a.coalesced
            assert a.future is b.future
            assert a.id != b.id
            # The duplicate consumed no queue slot.
            assert q.depth == 1
            snapshot = metrics.snapshot()
            assert snapshot["service.queue.coalesced"] == 1
            assert snapshot["service.queue.accepted"] == 1
            assert snapshot["service.queue.submitted"] == 2

        in_loop(lambda: body())

    def test_distinct_configs_do_not_coalesce(self, queue):
        q, _ = queue

        async def body():
            a = q.submit(sim(gpus=2))
            b = q.submit(sim(gpus=4))
            assert not b.coalesced
            assert a.future is not b.future
            assert q.depth == 2

        in_loop(lambda: body())

    def test_cached_result_short_circuits(self, queue):
        q, metrics = queue
        # Warm the memo outside the service, as a figure driver would.
        warm = run_simulation("jacobi", "gps", 2, **FAST)

        async def body():
            job = q.submit(sim())
            assert job.cache_hit
            assert job.state is JobState.DONE
            assert job.result is warm
            assert q.depth == 0 and q.inflight == 0
            assert metrics.snapshot()["service.queue.cache_hits"] == 1
            assert job.wait_s == 0.0 and job.run_s == 0.0

        in_loop(lambda: body())

    def test_backpressure_raises_queue_full(self, queue):
        q, metrics = queue

        async def body():
            for gpus in (1, 2, 4, 8):
                q.submit(sim(gpus=gpus))
            with pytest.raises(QueueFull):
                q.submit(sim(gpus=16))
            assert metrics.snapshot()["service.queue.rejected"] == 1
            # Coalescing still works at capacity — no slot needed.
            assert q.submit(sim(gpus=4)).coalesced

        in_loop(lambda: body())

    def test_closed_queue_rejects(self, queue):
        q, _ = queue

        async def body():
            q.close()
            with pytest.raises(ServiceClosed):
                q.submit(sim())

        in_loop(lambda: body())


class TestDispatchOrder:
    def test_anonymous_jobs_dispatch_fifo(self, queue):
        q, _ = queue

        async def body():
            jobs = [q.submit(sim(gpus=gpus)) for gpus in (1, 2, 4, 8)]
            ready = q.pop_ready(4)
            assert [j.id for j in ready] == [j.id for j in jobs]

        in_loop(lambda: body())

    def test_higher_priority_dispatches_first(self, queue):
        q, _ = queue

        async def body():
            low = q.submit(sim(gpus=1), priority=0, client="a")
            high = q.submit(sim(gpus=2), priority=5, client="b")
            ready = q.pop_ready(2)
            assert [j.id for j in ready] == [high.id, low.id]

        in_loop(lambda: body())

    def test_retry_reenters_at_original_position(self, queue):
        """A retried group keeps its first seq: it dispatches ahead of work
        queued after it, including work queued while it was running."""
        q, _ = queue

        async def body():
            first = q.submit(sim(gpus=1))
            second = q.submit(sim(gpus=2))
            (popped,) = q.pop_ready(1)
            assert popped.id == first.id
            q.mark_running(popped.key)
            third = q.submit(sim(gpus=4))
            q.record_attempt(popped.key)
            q.requeue(popped.key)
            replay = q.pop_ready(3)
            assert [j.id for j in replay] == [first.id, second.id, third.id]

        in_loop(lambda: body())

    def test_priority_then_fifo(self, queue):
        q, _ = queue

        async def body():
            low = q.submit(sim(gpus=1), priority=0)
            high = q.submit(sim(gpus=2), priority=5)
            mid_a = q.submit(sim(gpus=4), priority=2)
            mid_b = q.submit(sim(gpus=8), priority=2)
            ready = q.pop_ready(10)
            assert [j.id for j in ready] == [high.id, mid_a.id, mid_b.id, low.id]

        in_loop(lambda: body())

    def test_pop_respects_limit(self, queue):
        q, _ = queue

        async def body():
            for gpus in (1, 2, 4):
                q.submit(sim(gpus=gpus))
            assert len(q.pop_ready(2)) == 2
            assert q.depth == 1

        in_loop(lambda: body())


class TestLifecycle:
    def test_finish_resolves_whole_group(self, queue):
        q, metrics = queue

        async def body():
            a = q.submit(sim())
            b = q.submit(sim())
            (primary,) = q.pop_ready(1)
            q.mark_running(primary.key)
            assert a.state is JobState.RUNNING and b.state is JobState.RUNNING
            result = run_simulation("jacobi", "gps", 2, **FAST)
            q.finish(primary.key, result=result)
            for job in (a, b):
                assert job.state is JobState.DONE
                assert job.result is result
                assert job.wait_s is not None and job.run_s is not None
            assert q.inflight == 0
            assert metrics.snapshot()["service.jobs.completed"] == 2

        in_loop(lambda: body())

    def test_finish_with_error_fails_group(self, queue):
        q, metrics = queue

        async def body():
            job = q.submit(sim())
            q.pop_ready(1)
            q.mark_running(job.key)
            q.finish(job.key, error=RuntimeError("worker crashed"))
            assert job.state is JobState.FAILED
            assert "worker crashed" in job.error
            assert job.result is None
            assert metrics.snapshot()["service.jobs.failed"] == 1

        in_loop(lambda: body())

    def test_requeue_returns_to_queue(self, queue):
        q, metrics = queue

        async def body():
            job = q.submit(sim())
            q.pop_ready(1)
            q.mark_running(job.key)
            assert q.record_attempt(job.key) == 1
            q.requeue(job.key)
            assert job.state is JobState.QUEUED
            assert q.depth == 1
            assert metrics.snapshot()["service.jobs.retried"] == 1
            (again,) = q.pop_ready(1)
            assert again is job

        in_loop(lambda: body())

    def test_wait_ends_at_the_attempt_a_job_joins(self):
        """A duplicate joining a running attempt waited 0 s; one joining
        while its group waits for a retry waited for that retry."""
        clear_run_cache()
        now = [100.0]
        q = JobQueue(ServiceMetrics(), clock=lambda: now[0])

        async def body():
            primary = q.submit(sim())
            now[0] = 101.0
            q.pop_ready(1)
            q.mark_running(primary.key)
            now[0] = 102.0
            during_run = q.submit(sim())
            now[0] = 103.0
            q.record_attempt(primary.key)
            q.requeue(primary.key)
            now[0] = 104.0
            during_retry_wait = q.submit(sim())
            assert during_retry_wait.wait_s is None
            now[0] = 106.0
            q.pop_ready(1)
            q.mark_running(primary.key)
            now[0] = 110.0
            q.finish(primary.key, result=None)
            return primary, during_run, during_retry_wait

        jobs = in_loop(body)
        assert [(j.wait_s, j.run_s) for j in jobs] == [(1.0, 9.0), (0.0, 8.0), (2.0, 4.0)]
        assert [j.as_dict()["attempts"] for j in jobs] == [1, 1, 1]

    def test_abort_queued_fails_pending(self, queue):
        q, _ = queue

        async def body():
            job = q.submit(sim())
            assert q.abort_queued() == 1
            assert job.state is JobState.FAILED
            assert "shut down" in job.error

        in_loop(lambda: body())

    def test_as_dict_is_json_safe(self, queue):
        import json

        q, _ = queue

        async def body():
            job = q.submit(sim())
            payload = json.loads(json.dumps(job.as_dict()))
            assert payload["state"] == "queued"
            assert payload["job"]["workload"] == "jacobi"
            assert payload["key"] == job.key

        in_loop(lambda: body())


class TestRetention:
    def test_finished_job_records_are_bounded(self, queue, monkeypatch):
        from repro.service import queue as queue_module

        # A traced bench round reads the status of every one of its 200 jobs.
        assert queue_module.JOB_RECORDS > 200
        monkeypatch.setattr(queue_module, "JOB_RECORDS", 4)
        q, _ = queue
        run_simulation("jacobi", "gps", 2, **FAST)

        async def body():
            pending = q.submit(sim(gpus=4))  # queued: never evicted
            hits = [q.submit(sim()) for _ in range(10)]
            assert all(job.cache_hit for job in hits)
            assert len(q.jobs()) == 1 + 4
            assert q.get(pending.id) is pending
            assert q.get(hits[-1].id) is hits[-1]
            assert q.trace(hits[-1].trace_id)
            oldest = hits[0]
            assert q.get(oldest.id) is None
            assert q.trace(oldest.trace_id) == []

            # Once it finishes, the pending job joins the retained window.
            q.pop_ready(1)
            q.finish(pending.key, result="done")
            assert q.get(pending.id) is pending
            assert q.get(hits[-4].id) is None
            assert len(q.jobs()) == 4

        in_loop(body)
