"""GPS conformance rules over the dataflow and happens-before facts.

Each rule is a function from an :class:`AnalysisContext` to diagnostics,
registered under a stable code. ``GPS0xx`` codes are memory-model
conformance rules derived from the paper; ``GPS1xx`` codes are trace
hygiene checks. Severities are chosen so that the
registered workload suite — which deliberately uses the data-race-tolerant
idioms the paper's applications use (atomic scatters over shard writes,
stale gather reads) — stays clean under ``--strict``, while genuine
memory-model violations are hard errors.

Since the sanitizer rework, the race rules (GPS001/002/007) consult the
vector-clock engine (:mod:`repro.analysis.hb`): same-phase accesses that a
sys-scoped flag handshake orders are *not* racy, and every conformance
finding carries a :class:`~repro.analysis.diagnostics.Witness` naming the
two access sites, the disputed byte/page ranges, and the missing ordering
edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..trace.program import TraceProgram
from ..trace.records import MemOp, Scope
from .dataflow import AccessSite, ProgramDataflow
from .diagnostics import Diagnostic, Location, Severity, SiteRef, Witness
from .footprints import page_count
from .hb import HappensBefore
from .intervals import IntervalSet, page_round, sweep_overlaps


@dataclass(slots=True)
class AnalysisContext:
    """Everything a rule may consult."""

    program: TraceProgram
    dataflow: ProgramDataflow
    page_size: int
    hb: HappensBefore


RuleCheck = Callable[[AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True, slots=True)
class Rule:
    """Registered rule: stable code, metadata, and the check function."""

    code: str
    name: str
    severity: Severity
    summary: str
    #: Paper-section citation backing the rule.
    paper: str
    check: RuleCheck


#: code -> Rule, in registration (== code) order.
RULES: dict[str, Rule] = {}


def rule(code: str, name: str, severity: Severity, summary: str, paper: str):
    """Decorator registering a rule check under a stable code."""

    def register(check: RuleCheck) -> RuleCheck:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        RULES[code] = Rule(code, name, severity, summary, paper, check)
        return check

    return register


def _site_location(site: AccessSite, interval: "tuple[int, int] | None" = None) -> Location:
    return Location(
        phase=site.phase,
        kernel=site.kernel,
        gpu=site.gpu,
        buffer=site.access.buffer,
        interval=interval if interval is not None else site.interval,
    )


def _finding(
    code: str,
    message: str,
    location: Location,
    witness: "Witness | None" = None,
) -> Diagnostic:
    meta = RULES[code]
    return Diagnostic(
        meta.severity, code, message, rule=meta.name, location=location,
        witness=witness,
    )


def _witness(
    kind: str,
    site: AccessSite,
    other: "AccessSite | None",
    intervals: "tuple[tuple[int, int], ...]",
    page_size: int,
    missing_edge: str = "",
) -> Witness:
    pages = sum(page_count(start, end, page_size) for start, end in intervals)
    return Witness(
        kind=kind,
        site=SiteRef.from_site(site),
        other=SiteRef.from_site(other) if other is not None else None,
        intervals=intervals,
        page_size=page_size,
        pages=pages,
        missing_edge=missing_edge,
    )


# -- GPS0xx: memory-model conformance -----------------------------------------


@rule(
    "GPS001",
    "weak-write-write-race",
    Severity.ERROR,
    "two GPUs store non-atomically to overlapping bytes within one phase",
    "§2.3",
)
def check_weak_write_write_race(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Weak plain stores from different GPUs to overlapping bytes.

    With no intra-phase synchronisation, both replicas publish at the
    barrier and the merge order is undefined — the page ends up with a
    GPU-dependent mix of both write sets. A sys-scoped flag handshake that
    orders the two stores (release before acquire, paper §5.3) drains the
    write queue in between, so handshake-ordered pairs are skipped.
    Atomic-vs-atomic overlap is the well-defined accumulation idiom;
    atomic-vs-plain is GPS007.
    """
    for phase_sites in ctx.dataflow.phase_sites:
        for buffer, stores in sorted(phase_sites.stores.items()):
            plain = [
                s for s in stores
                if s.access.op is MemOp.WRITE and s.access.scope is Scope.WEAK
            ]
            if len(plain) < 2:
                continue
            seen: set[tuple[int, int]] = set()
            items = [(s.interval[0], s.interval[1], s) for s in plain]
            for a, b, overlap in sweep_overlaps(items):
                if a.gpu == b.gpu:
                    continue
                if not ctx.hb.concurrent(a, b):
                    continue
                pair = (min(a.gpu, b.gpu), max(a.gpu, b.gpu))
                if pair in seen:
                    continue
                seen.add(pair)
                yield _finding(
                    "GPS001",
                    f"phase {a.phase!r}: GPUs {pair[0]} and {pair[1]} both issue "
                    f"weak non-atomic stores to {buffer!r} "
                    f"[{overlap[0]}, {overlap[1]}); the replica merge order at "
                    "the barrier is undefined",
                    _site_location(b, overlap),
                    _witness(
                        "intra-phase-race", b, a, (overlap,), ctx.page_size,
                        ctx.hb.missing_edge(a, b),
                    ),
                )


@rule(
    "GPS002",
    "weak-write-read-race",
    Severity.INFO,
    "a GPU reads bytes another GPU stores in the same phase",
    "§2.3, §3",
)
def check_weak_write_read_race(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Cross-GPU same-phase store/read overlap with no ordering edge.

    Benign under GPS: loads always hit the local replica, so the reader
    observes the pre-phase value (weak stores become visible at the next
    sys-scoped sync, i.e. the barrier). Reported as info because the same
    trace is a genuine data race under directly-shared paradigms, and
    because the author may have expected to read the *new* value. Pairs a
    flag handshake orders are not reported at all — the reader provably
    observes the published value.
    """
    for phase_sites in ctx.dataflow.phase_sites:
        for buffer, stores in sorted(phase_sites.stores.items()):
            reads = phase_sites.reads.get(buffer, [])
            if not reads:
                continue
            weak_stores = [s for s in stores if s.access.scope is Scope.WEAK]
            pairs: set[tuple[int, int]] = set()
            first: "tuple[AccessSite, AccessSite, tuple[int, int]] | None" = None
            for read in reads:
                if read.access.op is not MemOp.READ:
                    continue  # atomic RMW overlap is the accumulation idiom
                for store in weak_stores:
                    if store.gpu == read.gpu:
                        continue
                    lo = max(read.interval[0], store.interval[0])
                    hi = min(read.interval[1], store.interval[1])
                    if lo >= hi:
                        continue
                    if not ctx.hb.concurrent(read, store):
                        continue
                    pairs.add((read.gpu, store.gpu))
                    if first is None:
                        first = (read, store, (lo, hi))
            if first is not None:
                read, store, overlap_range = first
                yield _finding(
                    "GPS002",
                    f"phase {read.phase!r}: {len(pairs)} reader/writer GPU "
                    f"pair(s) overlap on {buffer!r} (first: GPU {read.gpu} "
                    f"reads [{overlap_range[0]}, {overlap_range[1]}) while "
                    f"GPU {store.gpu} stores to it); under GPS the reader sees "
                    "the pre-phase replica, under directly-shared paradigms "
                    "this is a race",
                    _site_location(read, overlap_range),
                    _witness(
                        "intra-phase-race", read, store, (overlap_range,),
                        ctx.page_size, ctx.hb.missing_edge(store, read),
                    ),
                )


@rule(
    "GPS003",
    "read-before-write",
    Severity.ERROR,
    "a kernel reads bytes no earlier phase (nor setup) ever wrote",
    "§3.2 (Listing 1)",
)
def check_read_before_write(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Reads of never-written intervals observe unspecified memory.

    The dataflow frontier only publishes stores at phase barriers; a
    same-phase store a sys-scoped handshake orders *before* the read also
    initializes it (the release drains the write queue), so those bytes
    are subtracted before reporting.
    """
    for site in ctx.dataflow.sites:
        if not site.is_read or not site.uninitialized:
            continue
        gaps = site.uninitialized
        phase_stores = ctx.dataflow.phase_sites[site.phase_index].stores.get(
            site.access.buffer, []
        )
        ordered_cover = IntervalSet()
        for store in phase_stores:
            if store.site_index != site.site_index and ctx.hb.ordered(store, site):
                ordered_cover.add(*store.interval)
        if ordered_cover:
            gaps = tuple(
                part for start, end in gaps
                for part in ordered_cover.uncovered(start, end)
            )
            if not gaps:
                continue
        gap = gaps[0]
        total = sum(end - start for start, end in gaps)
        yield _finding(
            "GPS003",
            f"{site.phase!r}/{site.kernel!r} (GPU {site.gpu}) reads "
            f"{total} B of {site.access.buffer!r} that no earlier phase wrote, "
            f"first gap [{gap[0]}, {gap[1]})",
            _site_location(site, gap),
            _witness(
                "uninitialized-read", site, None, gaps,
                ctx.page_size,
                "no earlier phase stores these bytes before the read",
            ),
        )


@rule(
    "GPS004",
    "sys-scope-non-sync-buffer",
    Severity.WARNING,
    "a sys-scoped access targets a buffer not marked as a sync buffer",
    "§5.3",
)
def check_sys_scope_non_sync(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Sys-scoped data accesses forgo all GPS coalescing for no benefit.

    Strong accesses must go uncoalesced to a single point of coherence;
    the paper reserves them for synchronisation flags allocated outside
    GPS (cudaMalloc). A sys-scoped access to a plain data buffer usually
    means the scope annotation is wrong.
    """
    for site in ctx.dataflow.sites:
        if site.access.scope is Scope.SYS and not site.buffer.sync:
            yield _finding(
                "GPS004",
                f"{site.phase!r}/{site.kernel!r} (GPU {site.gpu}) issues a "
                f"sys-scoped {site.access.op.value} to data buffer "
                f"{site.access.buffer!r}; strong accesses bypass the write "
                "queue and belong on sync buffers only",
                _site_location(site),
                _witness(
                    "scope-mismatch", site, None, (site.interval,),
                    ctx.page_size,
                ),
            )


@rule(
    "GPS005",
    "weak-scope-sync-buffer",
    Severity.ERROR,
    "a weak-scoped access targets a sync buffer",
    "§5.3",
)
def check_weak_scope_sync(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Sync flags must opt out of GPS and be accessed sys-scoped.

    A weak store to a flag only becomes visible at the *next* sys-scoped
    synchronisation — exactly what the flag was supposed to provide — so a
    spin-waiting consumer deadlocks or reads stale flag values.
    """
    for site in ctx.dataflow.sites:
        if site.buffer.sync and site.access.scope is Scope.WEAK:
            yield _finding(
                "GPS005",
                f"{site.phase!r}/{site.kernel!r} (GPU {site.gpu}) issues a "
                f"weak {site.access.op.value} to sync buffer "
                f"{site.access.buffer!r}; sync flags must be accessed "
                "sys-scoped and allocated outside GPS",
                _site_location(site),
                _witness(
                    "scope-mismatch", site, None, (site.interval,),
                    ctx.page_size,
                ),
            )


def _first_other_store(
    ctx: AnalysisContext, gpu: int, buffer: str, intervals: "list[tuple[int, int]]"
) -> "AccessSite | None":
    """First iterative-region store by another GPU into any of ``intervals``."""
    for other in ctx.dataflow.sites:
        if other.gpu == gpu or not other.is_store or other.iteration < 0:
            continue
        if other.access.buffer != buffer:
            continue
        lo, hi = page_round(*other.interval, ctx.page_size)
        if any(lo < end and start < hi for start, end in intervals):
            return other
    return None


@rule(
    "GPS006",
    "stale-read-hazard",
    Severity.ERROR,
    "a GPU reads pages it never touched during the profile iteration",
    "§3.2, §4 (Listing 1)",
)
def check_stale_read_hazard(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Reads that automatic subscription management would break.

    GPS profiles iteration 0 and unsubscribes each GPU from every page it
    did not touch (``tracking_stop()``). A page read only in *later*
    iterations therefore has no local replica updates: if any other GPU
    keeps writing it, the unsubscribed reader observes stale data.
    """
    flow = ctx.dataflow
    if not flow.steady_iterations:
        return
    for site in flow.steady_reads:
        buffer = site.access.buffer
        if buffer not in flow.shared_buffers or site.buffer.sync:
            continue
        start, end = page_round(*site.interval, ctx.page_size)
        touched = flow.profile_touched.get((site.gpu, buffer))
        gaps = touched.uncovered(start, end) if touched is not None else [(start, end)]
        hazardous = [
            gap for gap in gaps if flow.stored_by_others(site.gpu, buffer, *gap)
        ]
        if not hazardous:
            continue
        pages = sum(-(-(e - s) // ctx.page_size) for s, e in hazardous)
        writer = _first_other_store(ctx, site.gpu, buffer, hazardous)
        yield _finding(
            "GPS006",
            f"{site.phase!r}/{site.kernel!r}: GPU {site.gpu} reads {pages} "
            f"page(s) of {buffer!r} it never touched in the profile iteration "
            f"(first at [{hazardous[0][0]}, {hazardous[0][1]})); auto-"
            "subscription would have unsubscribed it and the replica is stale",
            _site_location(site, hazardous[0]),
            _witness(
                "stale-subscription", site, writer, tuple(hazardous),
                ctx.page_size,
                f"GPU {site.gpu} holds no subscription for these pages after "
                "tracking_stop(); touch them in the profile iteration",
            ),
        )


@rule(
    "GPS007",
    "atomic-plain-store-mix",
    Severity.INFO,
    "atomics and plain stores hit overlapping bytes in one phase",
    "§7.4",
)
def check_atomic_plain_mix(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Atomic and plain stores interleaved on the same bytes.

    The remote write queue never coalesces atomics (the paper's graph and
    ALS traces show 0% write-queue hit rates), and a plain store racing an
    atomic accumulation can drop updates. Info severity: the registered
    graph workloads use exactly this idiom deliberately (owner resets its
    shard while neighbours scatter into it). Handshake-ordered pairs are
    not a mix — the plain store provably retires before (or after) the
    accumulation.
    """
    for phase_sites in ctx.dataflow.phase_sites:
        for buffer, stores in sorted(phase_sites.stores.items()):
            items = [(s.interval[0], s.interval[1], s) for s in stores]
            pairs: set[tuple[int, int]] = set()
            first: "tuple[AccessSite, AccessSite, tuple[int, int]] | None" = None
            for a, b, overlap in sweep_overlaps(items):
                ops = {a.access.op, b.access.op}
                if ops != {MemOp.ATOMIC, MemOp.WRITE}:
                    continue
                if a.gpu != b.gpu and not ctx.hb.concurrent(a, b):
                    continue
                pairs.add((min(a.gpu, b.gpu), max(a.gpu, b.gpu)))
                if first is None:
                    atomic = a if a.access.op is MemOp.ATOMIC else b
                    plain = b if atomic is a else a
                    first = (atomic, plain, overlap)
            if first is not None:
                atomic, plain, overlap_range = first
                yield _finding(
                    "GPS007",
                    f"phase {atomic.phase!r}: {buffer!r} receives both atomic "
                    f"and plain stores on overlapping ranges from "
                    f"{len(pairs)} GPU pair(s) (first: "
                    f"[{overlap_range[0]}, {overlap_range[1]}), atomic from "
                    f"GPU {atomic.gpu}); atomics forward uncoalesced and "
                    "plain stores can drop concurrent updates",
                    _site_location(atomic, overlap_range),
                    _witness(
                        "atomic-plain-mix", atomic, plain, (overlap_range,),
                        ctx.page_size, ctx.hb.missing_edge(atomic, plain),
                    ),
                )


@rule(
    "GPS008",
    "sync-handshake-cycle",
    Severity.ERROR,
    "intra-phase sys-scoped flag handshakes form a cycle",
    "§5.3",
)
def check_sync_cycle(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Circular flag handshakes can never all complete.

    If GPU 0 waits on a flag GPU 1 only raises after waiting on a flag
    GPU 0 only raises later, no interleaving satisfies every wait: the
    phase deadlocks on real hardware. The vector-clock engine finds these
    as strongly connected components of the intra-phase ordering graph and
    conservatively ignores the cyclic edges for the race rules.
    """
    for cycle in ctx.hb.cycles:
        head = cycle.sites[0]
        gpus = sorted({s.gpu for s in cycle.sites})
        yield _finding(
            "GPS008",
            f"phase {head.phase!r}: sys-scoped flag handshakes among GPUs "
            f"{gpus} form a cycle ({cycle.describe()}); no interleaving "
            "satisfies every wait and the phase cannot retire",
            _site_location(head),
            _witness(
                "sync-cycle", head, cycle.sites[-1],
                tuple(s.interval for s in cycle.sites), ctx.page_size,
                "the handshake graph needs a topological order; break the "
                "cycle or split the phase",
            ),
        )


# -- GPS1xx: trace hygiene ----------------------------------------------------


@rule(
    "GPS101",
    "unused-buffer",
    Severity.WARNING,
    "a declared buffer is never accessed",
    "—",
)
def check_unused_buffers(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Unused buffers usually mean a generator bug (or dead weight)."""
    for buffer in ctx.program.buffers:
        if buffer.name not in ctx.dataflow.used_buffers:
            yield _finding(
                "GPS101",
                f"buffer {buffer.name!r} is never accessed",
                Location(buffer=buffer.name),
            )


@rule(
    "GPS102",
    "idle-gpus",
    Severity.INFO,
    "a phase leaves some GPUs idle",
    "—",
)
def check_idle_gpus(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Idle GPUs in a phase are load imbalance (sometimes intentional)."""
    for phase in ctx.program.phases:
        missing = sorted(set(range(ctx.program.num_gpus)) - set(phase.gpus))
        if missing:
            yield _finding(
                "GPS102",
                f"phase {phase.name!r} leaves GPUs {missing} idle",
                Location(phase=phase.name),
            )


@rule(
    "GPS103",
    "no-setup-phase",
    Severity.WARNING,
    "an iterative program has no setup phase",
    "§3.2",
)
def check_setup_phase(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Without setup, first-touch and last-writer state default to homes."""
    if ctx.program.iterations >= 1 and not ctx.program.phases_in_iteration(-1):
        yield _finding(
            "GPS103",
            "iterative program has no setup phase; first-touch and "
            "last-writer state will default to buffer homes",
            Location(),
        )


@rule(
    "GPS104",
    "payload-imbalance",
    Severity.INFO,
    "per-GPU payloads within a phase differ wildly",
    "—",
)
def check_payload_balance(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """Wild per-GPU payload spread within a phase.

    A zero-payload kernel (no accesses) is the *worst* imbalance — the old
    linter's ``low > 0`` guard silently skipped exactly that case.
    """
    threshold = 4.0
    for phase in ctx.program.phases:
        if len(phase.kernels) < 2:
            continue
        payloads = [
            (sum(a.total_bytes() for a in kernel.accesses), kernel)
            for kernel in phase.kernels
        ]
        low, low_kernel = min(payloads, key=lambda p: p[0])
        high, _ = max(payloads, key=lambda p: p[0])
        if high <= 0:
            continue
        if low == 0:
            message = (
                f"phase {phase.name!r}: kernel {low_kernel.name!r} "
                f"(GPU {low_kernel.gpu}) moves 0 bytes while others move up "
                f"to {high} — unbounded payload imbalance"
            )
        elif high / low > threshold:
            message = (
                f"phase {phase.name!r}: per-GPU payload varies "
                f"{high / low:.1f}x ({low} .. {high} bytes)"
            )
        else:
            continue
        yield _finding(
            "GPS104",
            message,
            Location(phase=phase.name, kernel=low_kernel.name, gpu=low_kernel.gpu),
        )
