"""The GPS paradigm: publish-subscribe replication with proactive stores.

Execution model (paper sections 3-5):

* every allocation goes through ``cudaMallocGPS`` (automatic subscription),
  so all GPUs start subscribed to all pages — subscribed-by-default;
* iteration 0 is the profiling phase: the access tracking units observe the
  page-level access sets, and ``tracking_stop()`` unsubscribes GPUs from
  pages they never touched and demotes single-subscriber pages;
* every weak store to a (multi-subscriber) GPS page flows through the SM
  coalescer, the remote write queue, and the GPS address translation unit,
  producing one interconnect write per remote subscriber — concurrent with
  the kernel, drained fully at the phase barrier;
* loads are always local (a subscriber reads its own replica at full DRAM
  bandwidth); atomics are forwarded uncoalesced.

Because iterative programs repeat their kernels, the store-stream replay is
performed once per (kernel, subscription epoch) and its outbound window
reused across iterations — identical traffic, a fraction of the cost.
Across jobs, each store stream goes to the GPS unit with a content key
(access, subscription-filter mask, forwarded-as-atomic), so every config
and variant of one program shares each window's write-queue replay through
the analysis' window memo (:class:`repro.core.gps_unit.WindowMemo`).
"""

from __future__ import annotations

import numpy as np

from ..core.runtime import GPSRuntime
from ..errors import ParadigmError
from .base import ParadigmExecutor


class GPSExecutor(ParadigmExecutor):
    """GPS with automatic (default) or disabled subscription management."""

    name = "gps"

    def __init__(
        self,
        program,
        config,
        auto_subscription: bool = True,
        coalescing: bool = True,
        profile_iteration: int = 0,
    ) -> None:
        super().__init__(program, config)
        self.auto_subscription = auto_subscription
        self.coalescing = coalescing
        self.profile_iteration = profile_iteration
        self.runtime = GPSRuntime(config)
        for unit in self.runtime.gps_units:
            unit.window_memo = self.analysis.window_memo
        for buf in program.buffers:
            alloc = self.runtime.malloc_gps(buf.name, buf.size)
            expected = self.analysis.buffer_base(buf.name)
            if alloc.start != expected:
                raise ParadigmError(
                    f"allocation layout diverged for {buf.name!r}: "
                    f"{alloc.start:#x} != {expected:#x}"
                )
        self._lines_per_page = config.page_size // 128
        self._tracking = False
        self._profiled = False
        self._profile_phases_total = len(program.phases_in_iteration(profile_iteration))
        self._profile_phases_seen = 0
        #: (kernel, steady_epoch) -> OutboundWindow
        self._window_cache: dict = {}
        self.tracking_summary: dict = {}

    # -- profiling window ------------------------------------------------------

    def before_phase(self, phase) -> None:
        if not self.auto_subscription or self._profiled:
            return
        if phase.iteration == self.profile_iteration and not self._tracking:
            self.runtime.tracking_start()
            self._tracking = True

    def after_phase(self, phase) -> None:
        if not self._tracking or phase.iteration != self.profile_iteration:
            return
        self._profile_phases_seen += 1
        if self._profile_phases_seen == self._profile_phases_total:
            self.tracking_summary = self.runtime.tracking_stop()
            self._tracking = False
            self._profiled = True

    # -- per-kernel GPS processing -------------------------------------------------

    def _outbound_window(self, kernel):
        """Outbound traffic of one kernel under the current epoch (cached)."""
        key = (kernel, self._profiled)
        if key in self._window_cache:
            return self._window_cache[key]
        unit = self.runtime.gps_units[kernel.gpu]
        subs = self.runtime.subscriptions
        for fp, stream, atomic in self.analysis.store_streams(kernel):
            if fp.is_sys_scoped:
                continue  # handled by the collapse path, never forwarded
            mask_key = None
            if self._profiled:
                page_mask = subs.multi_subscriber_mask(fp.pages)
                if not page_mask.any():
                    continue
                if not page_mask.all():
                    multi = fp.pages[page_mask]
                    mask = np.isin(stream.lines // self._lines_per_page, multi)
                    stream = type(stream)(stream.lines[mask], stream.bytes_per_txn[mask])
                    if len(stream) == 0:
                        continue
                    mask_key = page_mask.tobytes()
            forward_atomic = atomic or not self.coalescing
            unit.process_stores(
                stream, atomic=forward_atomic, key=(fp.access, mask_key, forward_atomic)
            )
        window = unit.sync()
        self._window_cache[key] = window
        return window

    def execute_phase(self, phase, after):
        out_tasks = []
        for kernel in phase.kernels:
            footprint = self.analysis.footprint(kernel)
            if self._tracking:
                self.runtime.record_accesses(kernel.gpu, footprint.all_pages)
            # Loads are local replicas; stores hit the local replica too.
            duration = self.roofline(footprint)
            out_tasks.append(self.kernel_task(phase, kernel, duration, after))
            # Proactive publication: concurrent with the kernel, joined at
            # the barrier (remote write queue drains at grid end). Setup
            # phases initialise each replica locally and publish nothing.
            if self.is_setup_phase(phase):
                continue
            window = self._outbound_window(kernel)
            for dst, nbytes in sorted(window.bytes_to.items()):
                out_tasks.extend(
                    self.add_transfer(
                        f"{phase.name}/gps-pub", kernel.gpu, dst, nbytes, deps=after
                    )
                )
        return out_tasks

    # -- results ---------------------------------------------------------------

    def register_counters(self):
        """Publish the GPS hardware-unit stats into the counter registry.

        Per-GPU instances land under ``gpuN.`` scopes (``gpu0.gps_tlb.misses``);
        the registry's snapshot rolls them up into system-wide aggregates
        (``gps_tlb.misses``). The shared GPS page table is registered once,
        unscoped.
        """
        for gpu, unit in enumerate(self.runtime.gps_units):
            scope = self.counters.scope(f"gpu{gpu}")
            scope.provide("write_queue", unit.write_queue.stats.as_counters)
            scope.provide("gps_tlb", unit.tlb.counters)
        self.counters.provide("gps_page_table", self.runtime.gps_page_table.counters)
        per_gpu_coalescer: dict = {}
        for kernel in {k for phase in self.program.phases for k in phase.kernels}:
            stats = self.analysis.coalescer_stats(kernel)
            merged = per_gpu_coalescer.setdefault(kernel.gpu, {})
            for key, value in stats.as_counters().items():
                merged[key] = merged.get(key, 0) + value
        for gpu, merged in per_gpu_coalescer.items():
            scope = self.counters.scope(f"gpu{gpu}")
            for key, value in merged.items():
                scope.add(f"sm_coalescer.{key}", value)

    def build_result(self, total_time):
        result = super().build_result(total_time)
        result.write_queue_stats = [u.write_queue.stats for u in self.runtime.gps_units]
        result.gps_tlb_stats = [u.tlb.stats for u in self.runtime.gps_units]
        result.subscriber_histogram = dict(
            self.runtime.subscriptions.subscriber_histogram(only_shared=True)
        )
        result.extras["tracking"] = self.tracking_summary
        result.extras["auto_subscription"] = self.auto_subscription
        return result


class GPSNoSubscriptionExecutor(GPSExecutor):
    """GPS with subscription tracking disabled: permanent all-to-all.

    The Figure 11 comparison point — every store broadcasts to every GPU
    for the whole run.
    """

    name = "gps_nosub"

    def __init__(self, program, config) -> None:
        super().__init__(program, config, auto_subscription=False)


class GPSNoCoalescingExecutor(GPSExecutor):
    """Ablation: the remote write queue forwards every store uncombined."""

    name = "gps_nocoalesce"

    def __init__(self, program, config) -> None:
        super().__init__(program, config, coalescing=False)
