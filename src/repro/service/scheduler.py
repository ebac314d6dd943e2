"""Batched dispatch from the job queue into the harness runner.

The scheduler is one long-lived coroutine that repeatedly:

1. waits for a free batch slot, then for the queue to become non-empty;
2. pops up to ``batch_size`` groups, highest priority first, and packs them
   into one :func:`repro.harness.runner.run_many_settled` call, pushed off
   the event loop with ``asyncio.to_thread`` so the loop keeps serving HTTP
   while simulations run; batches always run ``traced=True``, so each run's
   engine spans come back beside its outcome;
3. settles each group individually: successes resolve their group's future,
   failures go straight back to the queue at their original position, up to
   ``max_retries`` additional attempts, then fail the future. A success
   hands its engine spans to :meth:`JobQueue.finish` with the result, so by
   the time a client sees ``state: done``, the job's trace is complete.

With a :class:`~repro.harness.runner.parallel.WorkerPool`, up to
``pool.workers`` batches are in flight at once, each on its own runner
thread over the one shared pool, so a job that arrives while a batch runs
starts on the free worker at once. Without one there is one slot: a batch
runs in-process and the next waits for it.

The loop never sleeps. A lone job dispatches at once; work that arrives
while every slot is busy queues up and leaves together as the next batch,
and duplicates coalesce in the queue either way. Simulations are
deterministic, so a retry gains nothing by waiting.

Shutdown is graceful by default: :meth:`BatchScheduler.stop` with
``drain=True`` waits until every queued and running group has settled
before cancelling the loop. ``drain=False`` fails the queued groups and the
running batches at once: their futures resolve with :class:`ServiceClosed`,
while the runner threads finish in the background and their outcomes are
dropped. The pool belongs to the caller, which joins it.
"""

from __future__ import annotations

import asyncio
import itertools

from ..harness.runner import run_many_settled
from ..harness.runner.parallel import WorkerPool
from .metrics import ServiceMetrics
from .queue import Job, JobQueue, ServiceClosed


class BatchScheduler:
    """Drains the :class:`JobQueue` into ``run_many_settled`` batches.

    ``runner`` is called as ``runner(sims, max_workers, traced=True,
    pool=pool)`` and returns one ``(outcome, spans)`` pair per simulation.
    ``pool`` is borrowed: its width is the number of batches in flight.
    """

    def __init__(
        self,
        queue: JobQueue,
        metrics: ServiceMetrics,
        *,
        batch_size: int = 8,
        max_retries: int = 2,
        max_workers: "int | None" = None,
        pool: "WorkerPool | None" = None,
        runner=run_many_settled,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.queue = queue
        self.metrics = metrics
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.max_workers = max_workers
        self.pool = pool
        self._slots = pool.workers if pool is not None else 1
        self._runner = runner
        self._batch_seq = itertools.count(1)
        self._task: "asyncio.Task | None" = None
        self._batches: "set[asyncio.Task]" = set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the scheduling loop on the running event loop."""
        if self._task is not None:
            raise RuntimeError("scheduler already started")
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-service-scheduler"
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop the loop; with ``drain`` wait for in-flight work first.

        The queue should already be closed to submissions (the server does
        this) so the drain barrier cannot be starved by new work.
        """
        if drain:
            await self.queue.wait_idle()
        else:
            self.queue.abort_queued()
        # Claim the tasks before awaiting so concurrent stop() calls are
        # harmless no-ops. A cancelled batch fails its jobs as it unwinds.
        task, self._task = self._task, None
        if task is not None:
            batches, self._batches = self._batches, set()
            for running in (task, *batches):
                running.cancel()
            await asyncio.gather(task, *batches, return_exceptions=True)

    # -- the loop ------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            if len(self._batches) >= self._slots:
                await asyncio.wait(self._batches, return_when=asyncio.FIRST_COMPLETED)
                continue
            await self.queue.wait_nonempty()
            batch = self.queue.pop_ready(self.batch_size)
            if batch:
                running = asyncio.get_running_loop().create_task(self._execute(batch))
                self._batches.add(running)
                running.add_done_callback(self._batches.discard)

    async def _execute(self, batch: "list[Job]") -> None:
        batch_seq = next(self._batch_seq)
        for job in batch:
            self.queue.mark_running(job.key, {"batch_seq": batch_seq, "batch_size": len(batch)})
        self.metrics.batch_started(len(batch))
        sims = [job.sim for job in batch]
        try:
            slots = await asyncio.to_thread(
                self._runner, sims, self.max_workers, traced=True, pool=self.pool
            )
        except asyncio.CancelledError:
            stopped = ServiceClosed("service shut down while the job was running")
            for job in batch:
                self.queue.finish(job.key, error=stopped)
            raise
        for job, (outcome, spans) in zip(batch, slots):
            if not isinstance(outcome, Exception):
                self.queue.finish(job.key, result=outcome, spans=spans)
            elif self.queue.record_attempt(job.key) <= self.max_retries:
                self.queue.requeue(job.key)
            else:
                self.queue.finish(job.key, error=outcome)
