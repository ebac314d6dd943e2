"""Remote Demand Loads (RDL).

Paper section 6: the converse of GPS — stores go to local memory and loads
are issued, on demand, to the most recent GPU that stored to the page. The
simulator tracks the last writer of every page exactly, standing in for the
"expert programmer who manually tracks writers to each page".

Remote loads ride the link *during* the kernel, so they overlap compute,
but they bound the kernel's duration when the link is the bottleneck and
they add dependent-load stalls that warp multithreading only partially
hides. Remote loads bypass the L2 in this model, so temporally repetitive
access patterns refetch the same cachelines over the interconnect — the
exact pathology Figure 10 shows for ALS.
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernel_timing import DEFAULT_REMOTE_MLP
from .base import ParadigmExecutor


class RDLExecutor(ParadigmExecutor):
    """Local stores, demand remote loads from each page's last writer."""

    name = "rdl"

    def __init__(self, program, config) -> None:
        super().__init__(program, config)
        # Last GPU to store to each page, in page-index space (index =
        # vpn - _page_base); seeded from each buffer's home GPU.
        self._page_base, _ = self.analysis.heap_page_span()
        self._writer_arr = self.analysis.home_gpu_array().copy()
        self.remote_read_bytes_total = 0

    def _writer_of(self, vpn: int) -> int:
        idx = vpn - self._page_base
        if 0 <= idx < self._writer_arr.shape[0]:
            return int(self._writer_arr[idx])
        return 0

    def execute_phase(self, phase, after):
        mlp = int(self.program.metadata.get("remote_mlp", DEFAULT_REMOTE_MLP))
        link = self.config.link
        hiding = self.config.rdl_latency_hiding

        # First pass: per-kernel remote pull demands, per source.
        demands = []  # (kernel, footprint, local_reads, pull_from, txns, payload)
        for kernel in phase.kernels:
            footprint = self.analysis.footprint(kernel)
            pull_from: dict[int, int] = {}
            local_reads = dict(footprint.read_bytes_by_kind)
            remote_txns = 0
            remote_payload = 0
            for fp in footprint.reads:
                writers = self._writer_arr[fp.pages - self._page_base]
                remote_mask = writers != kernel.gpu
                if not remote_mask.any():
                    continue
                frac = float(remote_mask.mean())
                remote_bytes = int(fp.payload_bytes * frac)
                txns = int(fp.txns * frac)
                remote_txns += txns
                remote_payload += remote_bytes
                local_reads[fp.kind] = max(0, local_reads.get(fp.kind, 0) - remote_bytes)
                # Peer loads fetch whole cache lines over the interconnect:
                # a 16-byte gather still moves 128 bytes of wire payload —
                # the waste the paper's section 7.5 and the ALS discussion
                # in Figure 10 describe.
                wire_bytes = txns * 128
                n_remote = int(remote_mask.sum())
                for src in sorted(set(writers[remote_mask].tolist())):
                    share = wire_bytes * int((writers == src).sum()) // n_remote
                    pull_from[src] = pull_from.get(src, 0) + share
            demands.append((kernel, footprint, local_reads, pull_from, remote_txns, remote_payload))

        # Source-port contention: a producer serving several readers
        # serialises their pulls on its egress port.
        src_load: dict[int, int] = {}
        for _, _, _, pull_from, _, _ in demands:
            for src, nbytes in pull_from.items():
                src_load[src] = src_load.get(src, 0) + nbytes

        out_tasks = []
        for kernel, footprint, local_reads, pull_from, remote_txns, remote_payload in demands:
            own_bytes = sum(pull_from.values())
            self.remote_read_bytes_total += remote_payload
            own_time = self.transfer_duration(own_bytes)
            src_times = [self.transfer_duration(src_load[src]) for src in pull_from]
            remote_bw_time = max([own_time] + src_times) if pull_from else 0.0
            serial_latency = remote_txns * link.latency / max(1, mlp)
            remote_latency_time = serial_latency * (1.0 - hiding)
            duration = self.roofline(
                footprint,
                read_bytes_by_kind=local_reads,
                remote_bw_time=remote_bw_time,
                remote_latency_time=remote_latency_time,
            )
            out_tasks.append(self.kernel_task(phase, kernel, duration, after))
            # Port occupancy + traffic accounting for the pulls.
            for src, nbytes in pull_from.items():
                out_tasks.extend(
                    self.add_transfer(f"{phase.name}/rdl-pull", src, kernel.gpu, nbytes, deps=after)
                )

        # Update last-writer state after the phase completes.
        written_vpns, last_writers = self.analysis.phase_max_writers(phase)
        if written_vpns.size:
            self._writer_arr[written_vpns - self._page_base] = last_writers
        return out_tasks

    def register_counters(self):
        """Publish the demand-load payload total under the ``rdl.`` prefix."""
        self.counters.scope("rdl").add("remote_read_bytes", self.remote_read_bytes_total)

    def build_result(self, total_time):
        result = super().build_result(total_time)
        result.extras["remote_read_bytes"] = self.remote_read_bytes_total
        return result
