"""Paradigm-independent program analysis, memoised by access content.

Iterative programs repeat the same accesses every iteration, so the
expensive work is done once per *distinct access* or *distinct read set*
and shared by every kernel, iteration and paradigm that repeats it. This
is the trick the paper's own methodology leans on: "the access patterns
in each program segment match those of prior segments" (section 3.2) is
what makes GPS profiling work at all.

* Each access, keyed by ``(AccessRange, buffer base)``, gets one
  :class:`AccessFootprint`: its page set, payload bytes and transactions,
  and for a store its coalescer accounting.
* Each kernel's read set, keyed by the tuple of its access keys in kernel
  order (order changes LRU hits), gets one warm L2 hit rate.
* Raw :class:`LineStream` expansions are transient. :meth:`footprint`
  expands what it needs into a local dict and drops it on return, so an
  analysis keeps products, never raw streams.
* A store's SM-coalesced stream lives in the analysis' stream table, and
  only while its program runs: :func:`get_analysis` empties the table of
  every other program's analyses when the process moves on to a different
  program, and :meth:`ProgramAnalysis.store_streams`, the only way to a
  stream, rebuilds a released one on demand.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.footprints import program_fingerprint
from ..cache.cache import Cache, set_count
from ..cache.warm_lru import warm_lru_hits
from ..config import SystemConfig
from ..core.gps_unit import WindowMemo
from ..core.write_queue import scalar_replay_enabled
from ..gpu.sm_coalescer import CoalescerStats, sm_coalesce
from ..memory.address_space import AddressSpace
from ..trace.expand import LineStream, expand_range
from ..trace.program import BufferSpec, KernelSpec, Phase, TraceProgram
from ..trace.records import AccessRange, MemOp, PatternKind, Scope


@dataclass
class AccessFootprint:
    """Cached expansion-derived facts about one access range."""

    access: AccessRange
    buffer_base: int
    #: Distinct absolute VPNs one sweep touches, sorted.
    pages: np.ndarray
    #: Payload bytes across all sweeps (what demand paradigms move).
    payload_bytes: int
    #: Line transactions across all sweeps.
    txns: int
    #: A store's coalescer accounting (``None`` for a read). Its coalesced
    #: stream is in the analysis' stream table (see ``store_streams``).
    coalescer: Optional[CoalescerStats] = None

    @property
    def kind(self) -> PatternKind:
        """Spatial pattern of the access."""
        return self.access.pattern.kind

    @property
    def is_atomic(self) -> bool:
        """Whether the access is a read-modify-write."""
        return self.access.op is MemOp.ATOMIC

    @property
    def is_sys_scoped(self) -> bool:
        """Whether the access carries sys scope."""
        return self.access.scope is Scope.SYS


@dataclass
class KernelFootprint:
    """Cached per-kernel aggregates every paradigm consumes."""

    kernel: KernelSpec
    reads: list
    stores: list
    #: Warm L2 hit rate of the kernel's local read stream.
    l2_hit_rate: float
    read_bytes_by_kind: dict
    store_bytes_by_kind: dict
    #: Union of pages the kernel reads / stores (sorted VPN arrays).
    read_pages: np.ndarray
    store_pages: np.ndarray
    #: Every page the kernel touches.
    all_pages: np.ndarray

    @property
    def total_read_bytes(self) -> int:
        """Payload bytes loaded."""
        return sum(self.read_bytes_by_kind.values())

    @property
    def total_store_bytes(self) -> int:
        """Payload bytes stored."""
        return sum(self.store_bytes_by_kind.values())


class ProgramAnalysis:
    """Shared analysis state for one (program, system config) pair."""

    def __init__(self, program: TraceProgram, config: SystemConfig) -> None:
        self.program = program
        self.config = config
        self.page_size = config.page_size
        # Deterministic VA layout identical to AddressSpace's bump allocator,
        # in buffer declaration order. GPSRuntime allocating the same buffers
        # in the same order lands on the same addresses.
        self._bases: dict[str, int] = {}
        cursor = AddressSpace.HEAP_BASE
        for buf in program.buffers:
            self._bases[buf.name] = cursor
            aligned = -(-buf.size // self.page_size) * self.page_size
            cursor += aligned
        self._buffer_by_page: dict[int, BufferSpec] = {}
        for buf in program.buffers:
            base = self._bases[buf.name]
            first = base // self.page_size
            last = (base + buf.size - 1) // self.page_size
            for vpn in range(first, last + 1):
                self._buffer_by_page[vpn] = buf
        shared = {b.name for b in program.shared_buffers()}
        self._shared_buffers = shared
        self._footprints: dict[KernelSpec, KernelFootprint] = {}
        #: Per-access products, keyed by ``(AccessRange, buffer base)``.
        self._products: dict[tuple, AccessFootprint] = {}
        #: Warm L2 hit rate per read set (the tuple of its access keys).
        self._l2_memo: dict[tuple, float] = {}
        #: SM-coalesced store streams by access key, held only while this
        #: analysis' program runs (:func:`get_analysis` releases them).
        self._store_streams: dict[tuple, LineStream] = {}
        #: Store streams :meth:`store_streams` rebuilt after a release. A
        #: host count like ``WindowMemo.hits``; it never enters a result.
        self.stream_rebuilds = 0
        self._home_gpu_arr: "Optional[np.ndarray]" = None
        self._phase_min_readers: dict[Phase, tuple] = {}
        self._phase_max_writers: dict[Phase, tuple] = {}
        #: GPS write-queue window outcomes, shared by every config and GPS
        #: variant that runs this program (keyed by window content).
        self.window_memo = WindowMemo()

    # -- layout ---------------------------------------------------------------

    def buffer_base(self, name: str) -> int:
        """Absolute VA base of a buffer."""
        return self._bases[name]

    def buffer_of_page(self, vpn: int) -> Optional[BufferSpec]:
        """The buffer covering a VPN, if any."""
        return self._buffer_by_page.get(vpn)

    def is_shared_buffer(self, name: str) -> bool:
        """Whether more than one GPU touches the buffer in this program."""
        return name in self._shared_buffers

    def shared_page_count(self) -> int:
        """Pages belonging to shared buffers."""
        return sum(
            1 for vpn, buf in self._buffer_by_page.items() if buf.name in self._shared_buffers
        )

    def heap_page_span(self) -> "tuple[int, int]":
        """``(base_vpn, page_count)`` covering every buffer page.

        The shared page-index space the vectorized paradigm executors use:
        a heap VPN maps to array index ``vpn - base_vpn``.
        """
        base = AddressSpace.HEAP_BASE // self.page_size
        end = max(self._buffer_by_page, default=base) + 1
        return base, end - base

    def home_gpu_array(self) -> np.ndarray:
        """Per-page buffer home GPU over :meth:`heap_page_span` (0 if none)."""
        if self._home_gpu_arr is None:
            base, count = self.heap_page_span()
            arr = np.zeros(count, dtype=np.int64)
            for buf in self.program.buffers:
                start = self._bases[buf.name]
                first = start // self.page_size
                last = (start + buf.size - 1) // self.page_size
                arr[first - base : last + 1 - base] = buf.home_gpu
            self._home_gpu_arr = arr
        return self._home_gpu_arr

    def phase_min_readers(self, phase: Phase) -> "tuple[np.ndarray, np.ndarray]":
        """``(vpns, gpus)``: sorted unique read VPNs and each one's lowest reader.

        Array form of ``min(phase_page_readers(phase)[vpn])`` — what the
        UM-hints contention rule asks of every remote page.
        """
        if phase not in self._phase_min_readers:
            self._phase_min_readers[phase] = self._phase_extreme(
                phase, "read_pages", take_max=False
            )
        return self._phase_min_readers[phase]

    def phase_max_writers(self, phase: Phase) -> "tuple[np.ndarray, np.ndarray]":
        """``(vpns, gpus)``: sorted unique store VPNs and each one's highest writer.

        Array form of ``phase_page_writers(phase)[vpn][-1]`` — RDL's
        post-phase last-writer update.
        """
        if phase not in self._phase_max_writers:
            self._phase_max_writers[phase] = self._phase_extreme(
                phase, "store_pages", take_max=True
            )
        return self._phase_max_writers[phase]

    def _phase_extreme(self, phase: Phase, attr: str, take_max: bool) -> tuple:
        arrays = []
        gpus = []
        for kernel in phase.kernels:
            pages = getattr(self.footprint(kernel), attr)
            if pages.size:
                arrays.append(pages)
                gpus.append(np.full(pages.shape, kernel.gpu, dtype=np.int64))
        if not arrays:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        vpns = np.concatenate(arrays)
        owners = np.concatenate(gpus)
        order = np.lexsort((owners, vpns))
        sv, so = vpns[order], owners[order]
        heads = np.empty(sv.shape, dtype=bool)
        heads[0] = True
        np.not_equal(sv[1:], sv[:-1], out=heads[1:])
        if take_max:
            # last element of each vpn group = max owner (sorted within group)
            pick = np.append(heads[1:], True)
        else:
            pick = heads
        return sv[heads], so[pick]

    # -- per-access products ------------------------------------------------------

    def stream(self, access: AccessRange) -> LineStream:
        """Expanded line stream for one access (all sweeps); not kept."""
        return expand_range(access, self._bases[access.buffer])

    def store_streams(self, kernel: KernelSpec) -> list:
        """SM-coalesced store streams for one kernel.

        Returns ``[(AccessFootprint, LineStream, atomic: bool), ...]`` in
        program order — the exact input the GPS unit consumes. The streams
        are shared per-access products; callers must not mutate them. A
        stream released since it was coalesced is expanded and coalesced
        again here (counted in :attr:`stream_rebuilds`).
        """
        table = self._store_streams
        out = []
        for fp in self.footprint(kernel).stores:
            key = (fp.access, fp.buffer_base)
            stream = table.get(key)
            if stream is None:
                stream = table[key] = sm_coalesce(expand_range(fp.access, fp.buffer_base))
                self.stream_rebuilds += 1
            out.append((fp, stream, fp.is_atomic))
        return out

    def release_streams(self) -> None:
        """Drop every held store stream; :meth:`store_streams` rebuilds on demand."""
        self._store_streams = {}

    def coalescer_stats(self, kernel: KernelSpec) -> CoalescerStats:
        """SM-coalescer accounting for one kernel's store stream.

        The sum over the kernel's stores, a repeated store counted each
        time: one pass over the kernel, a per-replay rate, not a
        per-iteration total.
        """
        stats = [fp.coalescer for fp in self.footprint(kernel).stores]
        return CoalescerStats(sum(s.txns_in for s in stats), sum(s.txns_out for s in stats))

    def _product(self, key: tuple, streams: dict) -> AccessFootprint:
        """The access's memoised products, expanding it into ``streams`` if new."""
        fp = self._products.get(key)
        if fp is None:
            access, base = key
            stream = streams[key] = expand_range(access, base)
            stats = None
            if access.op.is_store:
                stats = CoalescerStats()
                self._store_streams[key] = sm_coalesce(stream, stats)
            fp = self._products[key] = AccessFootprint(
                access, base, stream.pages(self.page_size), stream.total_bytes,
                len(stream), stats,
            )
        return fp

    # -- footprints -------------------------------------------------------------

    def footprint(self, kernel: KernelSpec) -> KernelFootprint:
        """Compute (once) the cached aggregate view of a kernel."""
        if kernel in self._footprints:
            return self._footprints[kernel]
        streams: dict[tuple, LineStream] = {}  # this call's raw expansions
        fps = [self._product((a, self._bases[a.buffer]), streams) for a in kernel.accesses]
        reads = [fp for fp in fps if not fp.access.op.is_store]
        stores = [fp for fp in fps if fp.access.op.is_store]
        read_pages, store_pages = _union(reads), _union(stores)
        footprint = self._footprints[kernel] = KernelFootprint(
            kernel=kernel, reads=reads, stores=stores,
            l2_hit_rate=self._warm_l2_hit_rate(reads, streams),
            read_bytes_by_kind=_bytes_by_kind(reads), store_bytes_by_kind=_bytes_by_kind(stores),
            read_pages=read_pages, store_pages=store_pages,
            all_pages=_sorted_unique(np.concatenate([read_pages, store_pages])),
        )
        return footprint

    def _warm_l2_hit_rate(self, reads: list, streams: dict) -> float:
        """Warm-cache L2 hit rate of the kernel's concatenated read stream.

        The stream runs through a fresh L2 twice; the second pass's hit rate
        is the steady-state value iterative kernels see. This is the
        mechanism behind EQWP's super-linear scaling: a quarter-size
        per-GPU working set fits where the full one did not.
        :func:`warm_lru_hits` counts the second pass's hits exactly;
        ``REPRO_SCALAR_REPLAY=1`` walks both passes through :class:`Cache`
        instead, the reference the two are tested against. Memoised per
        read set; a miss re-expands any read ``streams`` does not hold.
        """
        key = tuple((fp.access, fp.buffer_base) for fp in reads)
        if not key:
            return 0.0
        if key in self._l2_memo:
            return self._l2_memo[key]
        for read in key:
            if read not in streams:  # membership: an empty stream is falsy
                streams[read] = expand_range(*read)
        parts = [streams[read].lines for read in key]
        all_lines = np.concatenate(parts) if len(parts) > 1 else parts[0]
        gpu = self.config.gpu
        if scalar_replay_enabled():
            cache = Cache(gpu.l2_bytes, gpu.cache_block, gpu.l2_assoc)
            cache.simulate_stream(all_lines)  # cold pass: warm the cache
            rate = cache.simulate_stream(all_lines).hit_rate
        elif all_lines.shape[0] == 0:
            rate = 0.0
        else:
            num_sets = set_count(gpu.l2_bytes, gpu.cache_block, gpu.l2_assoc)
            rate = warm_lru_hits(all_lines, num_sets, gpu.l2_assoc) / all_lines.shape[0]
        self._l2_memo[key] = rate
        return rate

    # -- phase-level dataflow ------------------------------------------------------

    def phase_page_writers(self, phase: Phase) -> dict:
        """vpn -> sorted list of GPUs storing to it in this phase."""
        writers: dict[int, list[int]] = {}
        for kernel in phase.kernels:
            footprint = self.footprint(kernel)
            for vpn in footprint.store_pages.tolist():
                writers.setdefault(vpn, []).append(kernel.gpu)
        return {vpn: sorted(set(gpus)) for vpn, gpus in writers.items()}

    def phase_page_readers(self, phase: Phase) -> dict:
        """vpn -> sorted list of GPUs loading from it in this phase."""
        readers: dict[int, list[int]] = {}
        for kernel in phase.kernels:
            footprint = self.footprint(kernel)
            for vpn in footprint.read_pages.tolist():
                readers.setdefault(vpn, []).append(kernel.gpu)
        return {vpn: sorted(set(gpus)) for vpn, gpus in readers.items()}

    def written_extent_bytes(self, kernel: KernelSpec, shared_only: bool = True) -> int:
        """Bytes of buffer extent the kernel writes (bulk-copy granularity).

        This is what a ``cudaMemcpy``-based port must move: the written
        *range*, not the written payload — bulk copies cannot skip clean
        bytes inside the range (why GPS beats memcpy on sparse writers).
        """
        total = 0
        for access in kernel.accesses:
            if not access.op.is_store:
                continue
            if shared_only and not self.is_shared_buffer(access.buffer):
                continue
            total += access.length
        return total


def _union(fps: list) -> np.ndarray:
    if not fps:
        return np.empty(0, dtype=np.int64)
    if len(fps) == 1:
        return fps[0].pages
    return _sorted_unique(np.concatenate([fp.pages for fp in fps]))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` without its first-call ``numpy.ma`` import (~9 ms)."""
    out = np.sort(values)
    if out.shape[0] > 1:
        keep = np.empty(out.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _bytes_by_kind(fps: list) -> dict:
    out: dict[PatternKind, int] = {}
    for fp in fps:
        out[fp.kind] = out.get(fp.kind, 0) + fp.payload_bytes
    return out


# -- analysis sharing across paradigm executors ---------------------------------

#: Analyses (and, in the runner, programs) one process keeps, least recently
#: used evicted first. ``run_many`` runs each program's jobs back to back,
#: pooled or serial, so a grid of more programs than this (the whole paper
#: holds 48) still builds and analyses each once. The bound keeps a
#: long-lived ``repro serve`` process from growing with every distinct
#: program it sees: it retains each cached program's products (page sets,
#: byte and transaction counts, coalescer stats, L2 rates, window memo),
#: and store streams only for the program it ran last.
ANALYSIS_CACHE_SIZE = 32

_ANALYSIS_CACHE: "OrderedDict[tuple, ProgramAnalysis]" = OrderedDict()
_ANALYSIS_LOCK = threading.Lock()
#: The program of the last :func:`get_analysis` call: only its analyses
#: keep their store streams.
_RUNNING_PROGRAM: "Optional[TraceProgram]" = None


def get_analysis(program: TraceProgram, config: SystemConfig) -> ProgramAnalysis:
    """Shared :class:`ProgramAnalysis`, memoised across paradigm executors.

    Running six paradigms over the same program repeats the same trace
    expansion and L2 simulation; the analysis is paradigm-independent, so
    it is cached. The key covers everything the analysis depends on: the
    program's content (its fingerprint, which also covers the page size)
    and the L2 geometry. Two programs that share a name and buffer layout
    but differ in any access get separate entries. The cache is an LRU of
    :data:`ANALYSIS_CACHE_SIZE` entries; a hit refreshes recency.

    A call for a different program object than the last call's releases
    the store streams of every other program's analyses. The runner shares
    one program object per build recipe, so a page-size or L2 sweep of one
    program keeps its streams, and a grid, which runs each program's jobs
    back to back, rebuilds none.
    """
    global _RUNNING_PROGRAM
    key = (
        program_fingerprint(program, config.page_size),
        config.gpu.l2_bytes,
        config.gpu.l2_assoc,
        config.gpu.cache_block,
    )
    with _ANALYSIS_LOCK:
        analysis = _ANALYSIS_CACHE.get(key)
        if analysis is not None:
            _ANALYSIS_CACHE.move_to_end(key)
        else:
            analysis = _ANALYSIS_CACHE[key] = ProgramAnalysis(program, config)
            while len(_ANALYSIS_CACHE) > ANALYSIS_CACHE_SIZE:
                _ANALYSIS_CACHE.popitem(last=False)
        if program is not _RUNNING_PROGRAM:
            _RUNNING_PROGRAM = program
            for other in _ANALYSIS_CACHE.values():
                if other is not analysis and other.program is not program:
                    other.release_streams()
        return analysis


def clear_analysis_cache() -> None:
    """Drop all memoised analyses (tests that tweak global state use this)."""
    global _RUNNING_PROGRAM
    with _ANALYSIS_LOCK:
        _ANALYSIS_CACHE.clear()
        _RUNNING_PROGRAM = None
