"""The per-GPU GPS unit: write queue -> GPS-TLB -> replica fan-out.

This is the hardware datapath of Figure 7 (W4, W5, W6): weak stores to GPS
pages arrive from the SMs (already passed through the intra-SM coalescer),
coalesce in the remote write queue, and drained entries are translated by
the GPS address translation unit, producing one interconnect write per
remote subscriber. The unit accumulates per-destination byte counts that
the paradigm executor turns into timed transfers and traffic-matrix
entries.

Drained entries leave the queue in insertion order, which groups lines of
the same page into long runs (a 64 KiB page spans 512 lines), so the
batched path run-length-encodes the drain batch and performs one
translation per run — identical counters and routed bytes to the scalar
per-entry walk, at a fraction of the Python overhead. Set
``REPRO_SCALAR_REPLAY=1`` to force the scalar walk (the differential
harness compares the two).

A window starts from an empty write queue (every ``sync`` flushes it), so
its write-queue outcome depends only on the content of its store streams
and the watermark — not on GPS-TLB geometry or on who subscribes. Callers
that pass a content ``key=`` with each stream let the unit look the whole
window up in a shared :class:`WindowMemo`: a sweep over GPS-TLB sizes,
paradigm variants or repeated kernels replays each distinct window through
the write queue once, and only the per-job GPS-TLB accesses, page-table
lookups and fan-out run again.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from ..config import CACHE_BLOCK, GPSConfig
from ..obs.host import HOST
from ..trace.expand import LineStream
from .gps_page_table import GPSPageTable
from .gps_tlb import GPSTLB
from .write_queue import (
    DrainBatch,
    DrainedEntry,
    RemoteWriteQueue,
    WriteQueueStats,
    scalar_replay_enabled,
)


@dataclass
class OutboundWindow:
    """Traffic produced by one GPU's GPS unit within one sync window."""

    bytes_to: dict = field(default_factory=dict)  # dst gpu -> payload bytes
    writes_to: dict = field(default_factory=dict)  # dst gpu -> write count

    @property
    def total_bytes(self) -> int:
        """Payload bytes across all destinations."""
        return sum(self.bytes_to.values())

    def add(self, dst: int, payload: int) -> None:
        """Record one replica write."""
        self.bytes_to[dst] = self.bytes_to.get(dst, 0) + payload
        self.writes_to[dst] = self.writes_to.get(dst, 0) + 1

    def add_bulk(self, dst: int, payload: int, writes: int) -> None:
        """Record ``writes`` replica writes totalling ``payload`` bytes."""
        self.bytes_to[dst] = self.bytes_to.get(dst, 0) + payload
        self.writes_to[dst] = self.writes_to.get(dst, 0) + writes


#: ``WriteQueueStats`` counter names, in the order of a window's stats delta.
_STATS_FIELDS = tuple(WriteQueueStats.__dataclass_fields__)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WindowReplay:
    """One window's write-queue outcome in page-run form.

    Content only: what the GPS-TLB and the fan-out of any job need, and
    nothing that depends on TLB state or subscriber sets. Arrays are
    read-only int64 because one value serves every job that shares it.
    """

    #: Page-run head VPNs in drain order, per-drain-batch heads concatenated
    #: (each takes one real GPS-TLB access; run tails are MRU hits).
    heads: np.ndarray
    #: Distinct drained VPNs (sorted) with their payload and write totals.
    pages: np.ndarray
    page_payload: np.ndarray
    page_writes: np.ndarray
    #: Drained writes in the window (GPS-TLB translations, PTE lookups).
    drained: int
    #: ``WriteQueueStats`` delta of the window, in field order.
    stats_delta: np.ndarray


_MEMO_HITS = HOST.counter("host.window_memo.hits")
_MEMO_MISSES = HOST.counter("host.window_memo.misses")


class WindowMemo:
    """Content-keyed :class:`WindowReplay` values shared across jobs.

    One lives on each :class:`repro.system.analysis.ProgramAnalysis`, so
    every config and paradigm of one program shares it. Lookups are counted
    under ``host.window_memo.{hits,misses}``; they never reach result payloads.
    """

    def __init__(self) -> None:
        self._windows: dict = {}

    def __len__(self) -> int:
        return len(self._windows)

    def lookup(self, key, replay) -> WindowReplay:
        """The value under ``key``, computing it with ``replay()`` on a miss."""
        value = self._windows.get(key)
        if value is None:
            _MEMO_MISSES.add()
            value = self._windows[key] = replay()
        else:
            _MEMO_HITS.add()
        return value


class GPSUnit:
    """One GPU's GPS hardware: remote write queue plus translation."""

    def __init__(self, gpu_id: int, config: GPSConfig, page_table: GPSPageTable) -> None:
        self.gpu_id = gpu_id
        self.config = config
        self.write_queue = RemoteWriteQueue(config)
        self.tlb = GPSTLB(config, page_table)
        self._page_table = page_table
        self._lines_per_page = config.page_size // CACHE_BLOCK
        self._window = OutboundWindow()
        # Batched-route accumulators, folded into the window at sync():
        # per-destination byte and write totals as int64 arrays so a whole
        # drain batch lands in two np.add.at calls.
        self._bytes_acc = np.zeros(page_table.num_gpus, dtype=np.int64)
        self._writes_acc = np.zeros(page_table.num_gpus, dtype=np.int64)
        #: Shared window memo; keyed stores are deferred to ``sync`` only
        #: when one is attached.
        self.window_memo: "WindowMemo | None" = None
        #: ``(key, stream, atomic)`` of the open window's deferred stores.
        self._pending: list = []

    def process_stores(
        self, stream: LineStream, atomic: bool = False, key=None
    ) -> None:
        """Push a GPS-page store stream through the queue; route any drains.

        The caller guarantees the stream only contains stores to pages whose
        GPS bit is set (the conventional TLB filters in hardware, the
        paradigm executor filters here).

        ``key`` names the stream's content: equal keys must mean equal
        streams and equal ``atomic``. With a :attr:`window_memo` attached, a
        keyed stream into a window that started from an empty queue is
        deferred, and ``sync`` resolves the whole window through the memo.
        A keyless stream replays any deferred ones first, then runs eagerly.
        """
        if scalar_replay_enabled():
            drained = self.write_queue.process_stream(
                stream.lines, stream.bytes_per_txn, atomic=atomic
            )
            for entry in drained:
                self._route(entry)
            return
        if (
            key is not None
            and self.window_memo is not None
            and (self._pending or not len(self.write_queue))
        ):
            self._pending.append((key, stream, atomic))
            return
        self._replay_pending()
        batch = self.write_queue.process_stream_batch(
            stream.lines, stream.bytes_per_txn, atomic=atomic
        )
        self._route_batch(batch)

    def sync(self) -> OutboundWindow:
        """Drain at a synchronisation boundary; return and reset the window.

        Models the implicit release at grid end / sys-scoped fences: the
        remote write queue and the translation unit both drain fully.
        """
        if scalar_replay_enabled():
            for entry in self.write_queue.flush():
                self._route(entry)
        elif self._pending:
            # Deferral implies the queue was empty when the window opened
            # and has stayed untouched since, so the memo value is exact.
            self._route_window(self._resolve_window())
        else:
            self._route_batch(self.write_queue.flush_batch())
        self._fold_window()
        window = self._window
        self._window = OutboundWindow()
        return window

    def _fold_window(self) -> None:
        """Fold the batched-route accumulators into the outbound window."""
        if not self._writes_acc.any():
            return
        bytes_to = self._window.bytes_to
        writes_to = self._window.writes_to
        for dst in np.flatnonzero(self._writes_acc).tolist():
            bytes_to[dst] = bytes_to.get(dst, 0) + int(self._bytes_acc[dst])
            writes_to[dst] = writes_to.get(dst, 0) + int(self._writes_acc[dst])
        self._bytes_acc[:] = 0
        self._writes_acc[:] = 0

    def _replay_pending(self) -> None:
        """Run deferred keyed stores eagerly, in order (leaves deferral)."""
        pending, self._pending = self._pending, []
        for _, stream, atomic in pending:
            self.process_stores(stream, atomic=atomic)

    def _resolve_window(self) -> WindowReplay:
        """The open window's memo value; replays it on a miss."""
        pending, self._pending = self._pending, []
        key = (
            self.write_queue.watermark,
            self._lines_per_page,
            tuple(k for k, _, _ in pending),
        )
        return self.window_memo.lookup(key, lambda: self._replay_window(pending))

    def _replay_window(self, pending: list) -> WindowReplay:
        """Replay a window from an empty queue into its page-run form.

        Runs the same kernels as the eager path on a scratch queue, so the
        drain batches, their page-run heads and the stats delta are
        exactly what eager routing would have seen.
        """
        queue = RemoteWriteQueue(self.config)
        batches = [
            queue.process_stream_batch(s.lines, s.bytes_per_txn, atomic=atomic)
            for _, s, atomic in pending
        ]
        batches.append(queue.flush_batch())
        runs = [self._page_runs(b) for b in batches if len(b)]
        delta = _frozen(astuple(queue.stats))
        if not runs:
            empty = _frozen(np.empty(0, dtype=np.int64))
            return WindowReplay(empty, empty, empty, empty, 0, delta)
        heads = np.concatenate([r[0] for r in runs])
        pages, page_payload, page_writes = self._page_totals(
            heads,
            np.concatenate([r[1] for r in runs]),
            np.concatenate([r[2] for r in runs]),
        )
        return WindowReplay(
            heads=_frozen(heads),
            pages=_frozen(pages),
            page_payload=_frozen(page_payload),
            page_writes=_frozen(page_writes),
            drained=sum(len(b) for b in batches),
            stats_delta=delta,
        )

    def _route_window(self, value: WindowReplay) -> None:
        """Apply one memoised window: stats, GPS-TLB accesses, fan-out."""
        stats = self.write_queue.stats
        for name, add in zip(_STATS_FIELDS, value.stats_delta.tolist()):
            setattr(stats, name, getattr(stats, name) + add)
        if value.drained == 0:
            return
        self.tlb.translate_batch(value.heads.tolist(), value.drained)
        self._fan_out(value.pages, value.page_payload, value.page_writes, value.drained)

    def _route(self, entry: DrainedEntry) -> None:
        vpn = entry.line // self._lines_per_page
        pte = self.tlb.translate(vpn)
        for dst in pte.remote_subscribers(self.gpu_id):
            self._window.add(dst, entry.payload_bytes)

    def _route_batch(self, batch: DrainBatch) -> None:
        """Translate and fan out a drain batch, one TLB access run per page run.

        Consecutive drained entries of the same page form one run: the run
        head takes a real set-associative TLB access (hit or miss + walk)
        and the rest are guaranteed hits — exactly the counters the scalar
        per-entry walk produces. Routing is fully batched: per-page payload
        and write totals gather over the distinct VPNs, then scatter into
        the per-destination accumulators through each PTE's memoised
        remote-subscriber array (two np.add.at calls for the whole batch).
        """
        n = len(batch)
        if n == 0:
            return
        head_vpns, run_payload, run_len = self._page_runs(batch)
        self.tlb.translate_batch(head_vpns.tolist(), n)
        self._fan_out(*self._page_totals(head_vpns, run_payload, run_len), n)

    def _page_runs(self, batch: DrainBatch) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(head_vpns, run_payload, run_len)`` of a non-empty drain batch."""
        n = len(batch)
        vpns = batch.lines // self._lines_per_page
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        np.not_equal(vpns[1:], vpns[:-1], out=heads[1:])
        starts = np.flatnonzero(heads)
        ends = np.append(starts[1:], n)
        sums = np.concatenate(([0], np.cumsum(batch.payload_bytes)))
        return vpns[starts], sums[ends] - sums[starts], ends - starts

    @staticmethod
    def _page_totals(head_vpns, run_payload, run_len) -> tuple:
        """``(pages, page_payload, page_writes)``: run totals per distinct VPN."""
        uniq, inverse = np.unique(head_vpns, return_inverse=True)
        pages = uniq.shape[0]
        page_payload = np.zeros(pages, dtype=np.int64)
        page_writes = np.zeros(pages, dtype=np.int64)
        np.add.at(page_payload, inverse, run_payload)
        np.add.at(page_writes, inverse, run_len)
        return uniq, page_payload, page_writes

    def _fan_out(self, uniq, page_payload, page_writes, n: int) -> None:
        """Scatter per-page totals to every remote subscriber's accumulator.

        ``n`` drained writes consult the page table (its ``lookups`` count).
        """
        pages = uniq.shape[0]
        ptes = self._page_table.lookup_batch(uniq.tolist(), n)
        gpu_id = self.gpu_id
        dst_arrays = [pte.remote_array(gpu_id) for pte in ptes]
        fanout = np.fromiter(
            (arr.shape[0] for arr in dst_arrays), dtype=np.int64, count=pages
        )
        if not fanout.any():
            return
        dsts = np.concatenate(dst_arrays)
        np.add.at(self._bytes_acc, dsts, np.repeat(page_payload, fanout))
        np.add.at(self._writes_acc, dsts, np.repeat(page_writes, fanout))

    def invalidate_page(self, vpn: int) -> None:
        """GPS-TLB shootdown for one page (subscription change)."""
        self.tlb.invalidate(vpn)

    def invalidate_pages(self, vpns) -> None:
        """Batch GPS-TLB shootdown (bulk subscription changes / frees)."""
        self.tlb.invalidate_many(vpns)

    @staticmethod
    def sm_coalesce(stream: LineStream) -> LineStream:
        """The intra-SM coalescer stage in front of the write queue.

        Delegates to :func:`repro.gpu.sm_coalescer.sm_coalesce`; exposed
        here because architecturally the SM coalescer is the first stage of
        the GPS store path (Figure 7, W1-W3).
        """
        from ..gpu.sm_coalescer import sm_coalesce

        return sm_coalesce(stream)
