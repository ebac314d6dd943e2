"""Per-group dispatch from the job queue into the harness runner.

The scheduler is one long-lived coroutine that repeatedly:

1. waits for a free slot, then for the queue to become non-empty;
2. pops up to one group per free slot, highest priority first, and runs
   each group on its own :func:`repro.harness.runner.run_many_settled`
   call, pushed off the event loop with ``asyncio.to_thread`` so the loop
   keeps serving HTTP while simulations run; calls always run
   ``traced=True``, so the run's engine spans come back beside its outcome;
3. settles each group the moment its own call returns: a success resolves
   the group's future and hands its engine spans to :meth:`JobQueue.finish`
   with the result, so by the time a client sees ``state: done``, the
   job's trace is complete. A failure fails the future, except when the
   group's worker process was lost (``BrokenProcessPool``): that group goes
   straight back to the queue at its original position, at most
   :data:`LOST_WORKER_RETRIES` times, and runs on a fresh pool.

A simulation's own exception is deterministic, so running it again cannot
change it; only a lost worker is worth another attempt.

With a :class:`~repro.harness.runner.parallel.WorkerPool`, up to
``pool.workers`` groups are in flight at once, each on its own runner
thread over the one shared pool, so a job that arrives while another runs
starts on the free worker at once. Without one there is one slot: a group
runs in-process and the next waits for it.

The loop never sleeps. A lone job dispatches at once; work that arrives
while every slot is busy queues up and leaves one group per freed slot,
and duplicates coalesce in the queue either way.

Shutdown is graceful by default: :meth:`Scheduler.stop` with
``drain=True`` waits until every queued and running group has settled
before cancelling the loop. ``drain=False`` fails the queued and the
running groups at once: their futures resolve with :class:`ServiceClosed`,
while the runner threads finish in the background and their outcomes are
dropped. The pool belongs to the caller, which joins it.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool

from ..harness.runner import run_many_settled
from ..harness.runner.parallel import WorkerPool
from .queue import Job, JobQueue, ServiceClosed

#: Extra attempts a group gets after losing its worker process.
LOST_WORKER_RETRIES = 1


class Scheduler:
    """Drains the :class:`JobQueue`, one ``run_many_settled`` call per group.

    ``runner`` is called as ``runner([sim], max_workers, traced=True,
    pool=pool)`` and returns one ``(outcome, spans)`` pair. ``pool`` is
    borrowed: its width is the number of groups in flight. Without a pool
    the width is 1, so the runner gets ``max_workers=1``.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        pool: "WorkerPool | None" = None,
        runner=run_many_settled,
    ) -> None:
        self.queue = queue
        self.pool = pool
        self._slots = pool.workers if pool is not None else 1
        self._runner = runner
        self._task: "asyncio.Task | None" = None
        self._running: "dict[asyncio.Task, Job]" = {}

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
        # harmless no-ops.
        task, self._task = self._task, None
        if task is None:
            return
        running, self._running = self._running, {}
        for pending in (task, *running):
            pending.cancel()
        await asyncio.gather(task, *running, return_exceptions=True)
        stopped = ServiceClosed("service shut down while the job was running")
        for job in running.values():
            if job.future is not None and not job.future.done():
                self.queue.finish(job.key, error=stopped)

    # -- the loop ------------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            free = self._slots - len(self._running)
            if free < 1:
                await asyncio.wait(self._running, return_when=asyncio.FIRST_COMPLETED)
                continue
            await self.queue.wait_nonempty()
            for job in self.queue.pop_ready(free):
                self.queue.mark_running(job.key)
                running = loop.create_task(self._execute(job))
                self._running[running] = job
                running.add_done_callback(lambda done: self._running.pop(done, None))

    async def _execute(self, job: Job) -> None:
        try:
            [(outcome, spans)] = await asyncio.to_thread(
                self._runner, [job.sim], 1, traced=True, pool=self.pool
            )
        except Exception as exc:  # the runner itself broke: fail the group, never strand it
            outcome, spans = exc, None
        if not isinstance(outcome, Exception):
            self.queue.finish(job.key, result=outcome, spans=spans)
        elif (
            isinstance(outcome, BrokenProcessPool)
            and self.queue.record_attempt(job.key) <= LOST_WORKER_RETRIES
        ):
            self.queue.requeue(job.key)
        else:
            self.queue.finish(job.key, error=outcome)
