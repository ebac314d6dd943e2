"""Task-graph discrete-event scheduler.

The model: a :class:`Task` has a fixed duration, an optional exclusive
:class:`Resource`, and dependencies. Scheduling is event-driven list
scheduling — tasks become *ready* when all dependencies have finished, and a
ready task occupies its resource at the earliest instant the resource is
free, in ready-time order (FIFO per resource, deterministic tie-break by
insertion order).

Serialising a resource is how finite bandwidth is modelled: two 1 ms
transfers on one egress port take 2 ms end-to-end, the same aggregate as
fair sharing, without simulating byte-level interleaving.

The scheduled tasks are the one record of a run: :meth:`Engine.spans` derives
the trace view from them on demand, so there is no second copy to drift.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Iterable, Optional

from ..errors import SimulationError
from ..obs.span import Span


class Resource:
    """An exclusive, serialising resource (a GPU, a link port, a DMA engine)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.available_at = 0.0
        self.busy_time = 0.0

    def reset(self) -> None:
        """Clear occupancy between engine runs."""
        self.available_at = 0.0
        self.busy_time = 0.0

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, available_at={self.available_at:.6g})"


class Task:
    """A node in the task graph.

    ``start`` and ``end`` are populated by :meth:`Engine.run`; reading them
    before the run raises. ``category`` and ``attrs`` are structured trace
    metadata carried into the task's :class:`~repro.obs.span.Span` (see
    :meth:`Engine.spans`).
    """

    __slots__ = (
        "name",
        "duration",
        "resource",
        "deps",
        "seq",
        "category",
        "attrs",
        "_start",
        "_end",
    )

    def __init__(
        self,
        name: str,
        duration: float,
        resource: Optional[Resource],
        deps: tuple["Task", ...],
        seq: int,
        category: str = "task",
        attrs: Optional[dict] = None,
    ) -> None:
        if duration < 0:
            raise SimulationError(f"task {name!r} has negative duration {duration}")
        self.name = name
        self.duration = duration
        self.resource = resource
        self.deps = deps
        self.seq = seq
        self.category = category
        self.attrs = attrs
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    @property
    def start(self) -> float:
        """Scheduled start time (after :meth:`Engine.run`)."""
        if self._start is None:
            raise SimulationError(f"task {self.name!r} has not been scheduled")
        return self._start

    @property
    def end(self) -> float:
        """Scheduled completion time (after :meth:`Engine.run`)."""
        if self._end is None:
            raise SimulationError(f"task {self.name!r} has not been scheduled")
        return self._end

    def __repr__(self) -> str:
        window = ""
        if self._start is not None:
            window = f", [{self._start:.6g}, {self._end:.6g}]"
        return f"Task({self.name!r}, dur={self.duration:.6g}{window})"


class Engine:
    """Builds and schedules one task graph.

    Typical use::

        engine = Engine()
        gpu0 = engine.resource("gpu0")
        k = engine.task("kernel", 1e-3, resource=gpu0)
        t = engine.task("push", 4e-4, resource=port0, deps=[k])
        makespan = engine.run()
    """

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._resources: dict[str, Resource] = {}
        self._ran = False

    @property
    def has_run(self) -> bool:
        """Whether :meth:`run` has completed (:meth:`spans` requires it)."""
        return self._ran

    def resource(self, name: str) -> Resource:
        """Get or create the named resource."""
        if name not in self._resources:
            self._resources[name] = Resource(name)
        return self._resources[name]

    def task(
        self,
        name: str,
        duration: float,
        resource: Optional[Resource] = None,
        deps: Iterable[Task] = (),
        category: str = "task",
        attrs: Optional[dict] = None,
    ) -> Task:
        """Add a task to the graph. Dependencies must already be added.

        ``category`` and ``attrs`` annotate the span this task becomes in
        the trace (e.g. ``category="transfer", attrs={"bytes": n}``).
        """
        if self._ran:
            raise SimulationError("cannot add tasks after the engine has run")
        task = Task(
            name, duration, resource, tuple(deps), seq=len(self._tasks),
            category=category, attrs=attrs,
        )
        self._tasks.append(task)
        return task

    def barrier(self, name: str, deps: Iterable[Task]) -> Task:
        """A zero-duration task joining several dependencies."""
        return self.task(name, 0.0, resource=None, deps=deps, category="barrier")

    @property
    def num_tasks(self) -> int:
        """Tasks added so far."""
        return len(self._tasks)

    def tasks(self) -> list:
        """All tasks in insertion order (scheduled after :meth:`run`)."""
        return list(self._tasks)

    def run(self) -> float:
        """Schedule every task; returns the makespan (0.0 for an empty graph).

        Raises :class:`SimulationError` on a dependency cycle (unreachable
        when using the builder API, which only allows already-added deps,
        but checked anyway).
        """
        if self._ran:
            raise SimulationError("engine has already run")
        self._ran = True

        pending = {task.seq: len(task.deps) for task in self._tasks}
        dependents: dict[int, list[Task]] = {task.seq: [] for task in self._tasks}
        for task in self._tasks:
            for dep in task.deps:
                dependents[dep.seq].append(task)

        # Heap of (ready_time, seq) for tasks whose deps are all done.
        ready: list[tuple[float, int]] = []
        for task in self._tasks:
            if pending[task.seq] == 0:
                heapq.heappush(ready, (0.0, task.seq))

        scheduled = 0
        makespan = 0.0
        by_seq = {task.seq: task for task in self._tasks}
        while ready:
            ready_time, seq = heapq.heappop(ready)
            task = by_seq[seq]
            start = ready_time
            if task.resource is not None:
                start = max(start, task.resource.available_at)
            end = start + task.duration
            task._start = start
            task._end = end
            if task.resource is not None:
                task.resource.available_at = end
                task.resource.busy_time += task.duration
            makespan = max(makespan, end)
            scheduled += 1
            for dependent in dependents[seq]:
                pending[dependent.seq] -= 1
                if pending[dependent.seq] == 0:
                    dep_ready = max(d.end for d in dependent.deps)
                    heapq.heappush(ready, (dep_ready, dependent.seq))

        if scheduled != len(self._tasks):
            raise SimulationError(
                f"dependency cycle: only {scheduled} of {len(self._tasks)} tasks schedulable"
            )
        return makespan

    def spans(self) -> list[Span]:
        """One :class:`Span` per resource-bound task, in insertion order.

        Zero-duration resource tasks are included; resource-less tasks
        (barriers) are not. Raises :class:`SimulationError` before
        :meth:`run`: an empty trace from a never-run engine would read as
        "nothing happened" and hide the bug.
        """
        if not self._ran:
            raise SimulationError("cannot derive spans from an engine that has not run")
        return [
            Span(
                name=task.name,
                category=task.category,
                track=task.resource.name,
                start=task._start,  # type: ignore[arg-type]
                end=task._end,  # type: ignore[arg-type]
                attrs=task.attrs or {},
            )
            for task in self._tasks
            if task.resource is not None
        ]

    def makespan(self) -> float:
        """Largest task end time after :meth:`run`."""
        if not self._ran:
            raise SimulationError("engine has not run yet")
        if not self._tasks:
            return 0.0
        return max(task.end for task in self._tasks)

    def schedule_digest(self) -> str:
        """Canonical SHA-256 over the complete schedule (after :meth:`run`).

        Hashes every task's name, resource, and scheduled window using the
        shortest-roundtrip float repr, in insertion order. Two runs of the
        same task graph — in this process, another process, or another
        machine — must produce identical digests; the verify subsystem's
        differential harness compares these to localise a divergence to the
        scheduler rather than the result assembly.
        """
        if not self._ran:
            raise SimulationError("engine has not run yet")
        digest = hashlib.sha256()
        for task in self._tasks:
            resource = task.resource.name if task.resource is not None else "-"
            digest.update(
                f"{task.name}|{resource}|{task._start!r}|{task._end!r}\n".encode("utf-8")
            )
        return digest.hexdigest()
