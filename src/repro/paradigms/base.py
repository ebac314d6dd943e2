"""Shared paradigm-executor machinery.

An executor owns one DES engine, one traffic matrix, and the program
analysis; it walks the program phase by phase, emitting kernel tasks on GPU
compute resources and transfer tasks on link port resources. Subclasses
implement :meth:`ParadigmExecutor.execute_phase` and may hook
:meth:`before_phase` / :meth:`after_phase` (GPS uses these for its
profiling window).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

from ..config import SystemConfig
from ..gpu.kernel_timing import KernelTiming, KernelTimingModel
from ..interconnect.traffic import TrafficMatrix
from ..obs import CounterRegistry
from ..obs.span import CATEGORY_KERNEL, CATEGORY_TRANSFER
from ..sim.engine import Engine, Resource, Task
from ..system.analysis import KernelFootprint, get_analysis
from ..system.results import PhaseBreakdown, SimulationResult
from ..trace.program import Phase, TraceProgram

#: Multi-GPU barrier cost between phases (driver sync + semaphore fan-in).
PHASE_SYNC_OVERHEAD = 10e-6

#: Assumed L2 hit rate for the write stream (write-back absorption).
STORE_L2_HIT = 0.25


class ParadigmExecutor(ABC):
    """Template for all memory-management paradigm simulations."""

    name = "abstract"

    def __init__(self, program: TraceProgram, config: SystemConfig) -> None:
        if program.num_gpus > config.num_gpus:
            raise ValueError(
                f"program targets {program.num_gpus} GPUs but the system has {config.num_gpus}"
            )
        self.program = program
        self.config = config
        self.analysis = get_analysis(program, config)
        self.timing = KernelTimingModel(config.gpu)
        self.traffic = TrafficMatrix(config.num_gpus)
        #: Hierarchical hardware-counter registry, snapshotted into
        #: :attr:`SimulationResult.counters` by :meth:`build_result`.
        self.counters = CounterRegistry()
        self.engine = Engine()
        self._gpu_res = [self.engine.resource(f"gpu{g}") for g in range(config.num_gpus)]
        self._egress_res = [self.engine.resource(f"egress{g}") for g in range(config.num_gpus)]
        self._ingress_res = [self.engine.resource(f"ingress{g}") for g in range(config.num_gpus)]
        self._phases_out: list[PhaseBreakdown] = []

    # -- resources -------------------------------------------------------------

    def gpu_resource(self, gpu: int) -> Resource:
        """The compute resource of one GPU."""
        return self._gpu_res[gpu]

    def egress(self, gpu: int) -> Resource:
        """The egress port resource of one GPU."""
        return self._egress_res[gpu]

    def ingress(self, gpu: int) -> Resource:
        """The ingress port resource of one GPU."""
        return self._ingress_res[gpu]

    # -- shared cost helpers --------------------------------------------------------

    def roofline(
        self,
        footprint: KernelFootprint,
        read_bytes_by_kind: Optional[dict] = None,
        store_bytes_by_kind: Optional[dict] = None,
        remote_bw_time: float = 0.0,
        remote_latency_time: float = 0.0,
        extra_stall: float = 0.0,
    ) -> float:
        """Kernel duration: compute/local-memory roofline plus exposed terms.

        ``read_bytes_by_kind`` / ``store_bytes_by_kind`` override the
        footprint's local byte mix (paradigms that satisfy some accesses
        remotely pass the reduced local mix); remote terms come in
        pre-computed because contention policies differ per paradigm.
        """
        reads = footprint.read_bytes_by_kind if read_bytes_by_kind is None else read_bytes_by_kind
        stores = (
            footprint.store_bytes_by_kind if store_bytes_by_kind is None else store_bytes_by_kind
        )
        read_time = self.timing.local_memory_time(reads, footprint.l2_hit_rate)
        write_time = self.timing.local_memory_time(stores, STORE_L2_HIT)
        dram = self.counters.scope(f"gpu{footprint.kernel.gpu}").scope("dram")
        dram.add("read_bytes", sum(reads.values()))
        dram.add("write_bytes", sum(stores.values()))
        # TLB pressure: a footprint beyond last-level TLB coverage pays
        # page-walk storms — the mechanism that penalises 4 KiB pages in
        # the paper's section 7.4 page-size study.
        gpu = self.config.gpu
        overflow = max(0, int(footprint.all_pages.size) - gpu.tlb_entries)
        extra_stall += overflow * gpu.tlb_walk_penalty
        compute_time = footprint.kernel.compute_ops / self.timing.achieved_throughput
        timing = KernelTiming(
            compute_time=compute_time,
            local_mem_time=read_time + write_time,
            remote_bw_time=remote_bw_time,
            remote_latency_time=remote_latency_time + extra_stall,
            launch_overhead=footprint.kernel.launch_overhead,
        )
        return timing.total

    def transfer_duration(self, num_bytes: int) -> float:
        """Port occupancy time for one transfer on the configured link."""
        if num_bytes <= 0:
            return 0.0
        link = self.config.link
        if math.isinf(link.effective_bandwidth):
            return 0.0
        return link.latency + num_bytes / link.effective_bandwidth

    def add_transfer(
        self,
        label: str,
        src: int,
        dst: int,
        num_bytes: int,
        deps: list,
        record: bool = True,
        zero_time: bool = False,
    ) -> list:
        """Emit egress+ingress tasks for one transfer; returns both tasks.

        ``zero_time`` keeps the byte accounting but elides the duration —
        the infinite-bandwidth paradigm's definition (section 6).
        """
        if num_bytes <= 0 or src == dst:
            return []
        if record:
            self.traffic.add(src, dst, num_bytes)
            link = self.counters.scope("link")
            link.add(f"egress{src}.bytes", num_bytes)
            link.add(f"ingress{dst}.bytes", num_bytes)
            link.add("bytes", num_bytes)
            link.add("transfers")
        duration = 0.0 if zero_time else self.transfer_duration(num_bytes)
        attrs = {"bytes": num_bytes, "src": src, "dst": dst}
        e_task = self.engine.task(
            f"{label}:eg{src}->{dst}", duration, self.egress(src), deps,
            category=CATEGORY_TRANSFER, attrs=attrs,
        )
        i_task = self.engine.task(
            f"{label}:in{src}->{dst}", duration, self.ingress(dst), deps,
            category=CATEGORY_TRANSFER, attrs=attrs,
        )
        return [e_task, i_task]

    def kernel_task(self, phase: Phase, kernel, duration: float, deps: list) -> Task:
        """Emit one kernel task on its GPU with structured span metadata.

        The canonical name shape ``<phase>/<kernel>@gpuN`` is what phase
        breakdowns and the self-time profiler key on.
        """
        return self.engine.task(
            f"{phase.name}/{kernel.name}@gpu{kernel.gpu}",
            duration,
            self.gpu_resource(kernel.gpu),
            deps,
            category=CATEGORY_KERNEL,
            attrs={"gpu": kernel.gpu, "phase": phase.name, "iteration": phase.iteration},
        )

    @staticmethod
    def is_setup_phase(phase: Phase) -> bool:
        """Whether a phase is initialisation (iteration < 0).

        Setup writes initialise data in place — under replicating paradigms
        (GPS, memcpy) each replica is initialised locally (the moral
        equivalent of a per-GPU ``cudaMemset``), so setup stores produce no
        interconnect broadcast. Placement side effects (first touch, last
        writer) still apply.
        """
        return phase.iteration < 0

    # -- phase walk -------------------------------------------------------------

    def before_phase(self, phase: Phase) -> None:
        """Hook invoked before a phase's tasks are emitted."""

    def after_phase(self, phase: Phase) -> None:
        """Hook invoked after a phase's tasks are emitted."""

    @abstractmethod
    def execute_phase(self, phase: Phase, after: list) -> list:
        """Emit this phase's tasks; returns the tasks the barrier must join.

        ``after`` holds the dependency tasks every task in the phase must
        wait on (the previous phase's barrier).
        """

    def run(self) -> SimulationResult:
        """Execute the whole program and assemble the result."""
        after: list = []
        barriers = []
        for phase in self.program.phases:
            self.before_phase(phase)
            tasks = self.execute_phase(phase, after)
            sync_cost = PHASE_SYNC_OVERHEAD if self.config.num_gpus > 1 else 0.0
            barrier = self.engine.task(f"barrier:{phase.name}", sync_cost, None, tasks or after)
            barriers.append((phase, barrier, tasks))
            after = [barrier]
            self.after_phase(phase)
        total = self.engine.run()
        prev_end = 0.0
        for phase, barrier, tasks in barriers:
            # Kernel tasks are named ".../<kernel>@gpuN"; everything else in
            # the phase is communication or fault handling.
            kernel_time = max(
                (t.duration for t in tasks if "@gpu" in t.name), default=0.0
            )
            duration = barrier.end - prev_end
            exposed = max(0.0, duration - kernel_time - barrier.duration)
            self._phases_out.append(
                PhaseBreakdown(
                    name=phase.name,
                    start=prev_end,
                    end=barrier.end,
                    kernel_time=kernel_time,
                    exposed_transfer_time=exposed,
                )
            )
            prev_end = barrier.end
        return self.build_result(total)

    def register_counters(self) -> None:
        """Hook: attach lazy counter providers before the snapshot.

        Subclasses register their hardware models' stats objects here
        (GPS-TLB, write queue, page table, coalescer); the base walk calls
        it exactly once, from :meth:`build_result`.
        """

    def schedule_digest(self) -> str:
        """Canonical digest of the scheduled task graph (after :meth:`run`).

        Every executor is required to be deterministic: the same program and
        config must schedule the same tasks at the same instants in every
        process. The verify subsystem asserts this by comparing digests
        across execution paths.
        """
        return self.engine.schedule_digest()

    def build_result(self, total_time: float) -> SimulationResult:
        """Assemble the common result fields; subclasses extend."""
        self.register_counters()
        result = SimulationResult(
            program_name=self.program.name,
            paradigm=self.name,
            num_gpus=self.program.num_gpus,
            total_time=total_time,
            traffic=self.traffic,
            phases=self._phases_out,
            counters=self.counters.as_dict(),
        )
        # The digest rides in extras so every execution path (direct, disk
        # cache, result store, process pool, service) carries it: a cross-path divergence
        # can then be localised to the scheduler vs. the result assembly.
        result.extras["schedule_digest"] = self.schedule_digest()
        return result
