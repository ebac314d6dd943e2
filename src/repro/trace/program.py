"""Trace programs: buffers, kernels, phases — the unit paradigms execute.

A :class:`TraceProgram` is the synthetic analogue of an NVBit trace: a fixed
sequence of :class:`Phase` objects, each holding the kernels that run
concurrently (one per participating GPU) before a global barrier. Iterative
applications tag phases with their iteration index so GPS's automatic
profiling (iteration 0, paper Listing 1) knows where tracking starts and
stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from ..errors import TraceError
from .records import AccessRange, MemOp


def _hash_once(self) -> int:
    """The dataclass field-tuple hash, computed once per instance.

    Kernels and phases key every per-program memo, and their default hash
    walks all nested accesses on each lookup. The cached value is an
    instance attribute, not a field, so ``eq``, ``repr`` and serialisation
    never see it.
    """
    cached = self.__dict__.get("_hash")
    if cached is None:
        cached = hash(tuple(getattr(self, name) for name in self.__dataclass_fields__))
        object.__setattr__(self, "_hash", cached)
    return cached


def _state_without_memos(self) -> dict:
    """Pickle state minus per-instance memos (``str`` hashes differ per process)."""
    state = dict(self.__dict__)
    state.pop("_hash", None)
    state.pop("_fingerprints", None)
    return state


@dataclass(frozen=True)
class BufferSpec:
    """One shared or private data buffer of the application."""

    name: str
    size: int
    #: GPU whose partition "owns" the buffer for first-touch placement; for
    #: buffers written by all GPUs this is just where UM first places pages.
    home_gpu: int = 0
    #: Buffers holding synchronisation flags must opt out of GPS
    #: (paper section 5.3) — allocated with cudaMalloc, accessed sys-scoped.
    sync: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise TraceError(f"buffer {self.name!r} must have positive size")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel launch on one GPU."""

    name: str
    gpu: int
    #: Scalar arithmetic operations executed (drives the compute roofline).
    compute_ops: float
    accesses: tuple[AccessRange, ...]
    #: Kernel launch overhead charged once per launch.
    launch_overhead: float = 5e-6

    __hash__ = _hash_once
    __getstate__ = _state_without_memos

    def __post_init__(self) -> None:
        if self.gpu < 0:
            raise TraceError(f"kernel {self.name!r} has negative GPU id")
        if self.compute_ops < 0:
            raise TraceError(f"kernel {self.name!r} has negative compute_ops")

    def reads(self) -> tuple[AccessRange, ...]:
        """Ranges this kernel loads from."""
        return tuple(a for a in self.accesses if a.op is MemOp.READ)

    def stores(self) -> tuple[AccessRange, ...]:
        """Ranges this kernel writes or atomically updates."""
        return tuple(a for a in self.accesses if a.op.is_store)


@dataclass(frozen=True)
class Phase:
    """Kernels running concurrently between two global barriers."""

    name: str
    kernels: tuple[KernelSpec, ...]
    #: Iteration index for iterative programs; -1 marks setup phases.
    iteration: int = 0

    __hash__ = _hash_once
    __getstate__ = _state_without_memos

    def __post_init__(self) -> None:
        gpus = [k.gpu for k in self.kernels]
        if len(set(gpus)) != len(gpus):
            raise TraceError(
                f"phase {self.name!r} launches more than one kernel on one GPU; "
                "split them into successive phases"
            )

    def kernel_on(self, gpu: int) -> Optional[KernelSpec]:
        """The kernel this phase runs on ``gpu``, if any."""
        for kernel in self.kernels:
            if kernel.gpu == gpu:
                return kernel
        return None

    @property
    def gpus(self) -> tuple[int, ...]:
        """GPUs participating in this phase."""
        return tuple(k.gpu for k in self.kernels)


@dataclass
class TraceProgram:
    """A complete application trace.

    ``buffers`` declare the data; ``phases`` execute in order with an
    implicit global barrier (and, under the GPU memory model, an implicit
    release/fence: the GPS write queue drains) between consecutive phases.
    """

    name: str
    num_gpus: int
    buffers: tuple[BufferSpec, ...]
    phases: tuple[Phase, ...]
    metadata: dict = field(default_factory=dict)

    __getstate__ = _state_without_memos

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise TraceError("program needs at least one GPU")
        names = [b.name for b in self.buffers]
        if len(set(names)) != len(names):
            raise TraceError(f"duplicate buffer names in program {self.name!r}")
        by_name = {b.name: b for b in self.buffers}
        for phase in self.phases:
            for kernel in phase.kernels:
                if kernel.gpu >= self.num_gpus:
                    raise TraceError(
                        f"{phase.name}/{kernel.name}: GPU {kernel.gpu} out of range "
                        f"for a {self.num_gpus}-GPU program"
                    )
                for access in kernel.accesses:
                    buf = by_name.get(access.buffer)
                    if buf is None:
                        raise TraceError(
                            f"{phase.name}/{kernel.name}: unknown buffer {access.buffer!r}"
                        )
                    if access.end > buf.size:
                        raise TraceError(
                            f"{phase.name}/{kernel.name}: access [{access.offset}, "
                            f"{access.end}) overruns buffer {buf.name!r} of {buf.size} B"
                        )

    def buffer(self, name: str) -> BufferSpec:
        """Look up a buffer by name."""
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise TraceError(f"unknown buffer {name!r}")

    @property
    def iterations(self) -> int:
        """Number of distinct non-setup iterations."""
        indices = {p.iteration for p in self.phases if p.iteration >= 0}
        return len(indices)

    def phases_in_iteration(self, iteration: int) -> list[Phase]:
        """All phases tagged with one iteration index."""
        return [p for p in self.phases if p.iteration == iteration]

    def iter_kernels(self) -> Iterator[KernelSpec]:
        """Every kernel launch in program order."""
        for phase in self.phases:
            yield from phase.kernels

    def total_compute_ops(self) -> float:
        """Sum of compute across all kernels (sanity metric)."""
        return sum(k.compute_ops for k in self.iter_kernels())

    def with_phases(self, phases: "tuple[Phase, ...]") -> "TraceProgram":
        """Copy of the program with ``phases`` replaced (re-validated)."""
        return TraceProgram(
            name=self.name,
            num_gpus=self.num_gpus,
            buffers=self.buffers,
            phases=phases,
            metadata=dict(self.metadata),
        )

    def rewrite_accesses(
        self,
        fn: "Callable[[int, KernelSpec, int, AccessRange], Optional[AccessRange]]",
    ) -> "TraceProgram":
        """Copy with every access mapped through ``fn``.

        ``fn(phase_index, kernel, access_index, access)`` returns the
        replacement access (or the access itself / ``None`` to keep it).
        Untouched phases and kernels are shared, not copied.
        """
        new_phases: list[Phase] = []
        changed_any = False
        for phase_index, phase in enumerate(self.phases):
            new_kernels: list[KernelSpec] = []
            phase_changed = False
            for kernel in phase.kernels:
                new_accesses: list[AccessRange] = []
                kernel_changed = False
                for access_index, access in enumerate(kernel.accesses):
                    replacement = fn(phase_index, kernel, access_index, access)
                    if replacement is None or replacement is access:
                        new_accesses.append(access)
                    else:
                        new_accesses.append(replacement)
                        kernel_changed = True
                if kernel_changed:
                    new_kernels.append(
                        replace(kernel, accesses=tuple(new_accesses))
                    )
                    phase_changed = True
                else:
                    new_kernels.append(kernel)
            if phase_changed:
                new_phases.append(replace(phase, kernels=tuple(new_kernels)))
                changed_any = True
            else:
                new_phases.append(phase)
        if not changed_any:
            return self
        return self.with_phases(tuple(new_phases))

    def shared_buffers(self) -> list[BufferSpec]:
        """Buffers accessed by more than one GPU anywhere in the program."""
        touchers: dict[str, set[int]] = {}
        for kernel in self.iter_kernels():
            for access in kernel.accesses:
                touchers.setdefault(access.buffer, set()).add(kernel.gpu)
        return [b for b in self.buffers if len(touchers.get(b.name, set())) > 1]
