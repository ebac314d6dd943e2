"""The invariant oracle: model-correctness laws over simulation results.

Three layers of checkers, mirroring how much context is available:

* **result checks** — laws any :class:`SimulationResult` must satisfy in
  isolation (conservation between the traffic matrix and the link
  counters, phase timeline tiling, counter sanity, exact serialisation
  round-trip);
* **execution checks** — laws that need the live executor (span coverage
  of the reported makespan, per-track span exclusivity, span/busy-time
  conservation, schedule-digest stability);
* **family checks** — cross-paradigm laws over one program simulated under
  several paradigms (infinite bandwidth lower-bounds every real config,
  GPS subscription tracking never *adds* traffic, GPS never moves more
  bytes than memcpy's broadcast).

Checkers are registered in a flat catalogue (``ORACLE_CHECKS``) like the
static analyzer's rules, so ``repro verify`` can report which law failed by
stable name and docs/VERIFY.md can enumerate them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..config import SystemConfig
from ..system.results import SimulationResult

#: Relative tolerance for float comparisons between independently
#: accumulated quantities (sums taken in different orders).
REL_EPS = 1e-9

#: Paradigms whose executors take page faults.
_FAULTING = {"um", "um_hints"}


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


CheckFn = Callable[..., Iterable[Violation]]

#: name -> (layer, check function); layers: result | execution | family.
ORACLE_CHECKS: "dict[str, tuple[str, CheckFn]]" = {}


def invariant(name: str, layer: str = "result"):
    """Decorator registering one oracle checker under a stable name."""

    def register(fn: CheckFn) -> CheckFn:
        if name in ORACLE_CHECKS:
            raise ValueError(f"duplicate oracle check {name!r}")
        ORACLE_CHECKS[name] = (layer, fn)
        return fn

    return register


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_EPS * max(1.0, abs(a), abs(b), abs(scale))


# -- result checks -------------------------------------------------------------


@invariant("total-time-sane")
def check_total_time(result: SimulationResult, config=None) -> Iterator[Violation]:
    """The makespan is a finite, non-negative number."""
    t = result.total_time
    if not isinstance(t, (int, float)) or not math.isfinite(t) or t < 0:
        yield Violation("total-time-sane", f"total_time is {t!r}")


@invariant("traffic-matrix-wellformed")
def check_traffic_matrix(result: SimulationResult, config=None) -> Iterator[Violation]:
    """The byte matrix is square, non-negative, and zero on the diagonal.

    The matrix is sized by the *system* (which may have more GPUs than the
    program uses), so its side must be square and at least the program's
    GPU count — and must match the config exactly when one is supplied.
    """
    rows = result.traffic.as_lists()
    n = len(rows)
    if n < result.num_gpus or any(len(row) != n for row in rows):
        yield Violation(
            "traffic-matrix-wellformed",
            f"traffic matrix side {n} is not square or is smaller than the "
            f"program's {result.num_gpus} GPUs",
        )
        return
    if config is not None and n != config.num_gpus:
        yield Violation(
            "traffic-matrix-wellformed",
            f"traffic matrix side {n} does not match the system's "
            f"{config.num_gpus} GPUs",
        )
    for src, row in enumerate(rows):
        for dst, value in enumerate(row):
            if value < 0:
                yield Violation(
                    "traffic-matrix-wellformed",
                    f"negative traffic {value} for {src}->{dst}",
                )
            if src == dst and value != 0:
                yield Violation(
                    "traffic-matrix-wellformed",
                    f"self-traffic {value} B on GPU {src}'s diagonal",
                )


@invariant("wire-byte-conservation")
def check_wire_conservation(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Bytes on the wire agree between the traffic matrix and link counters.

    Every transfer is double-entry bookkeeping: the executor records it in
    the traffic matrix *and* on the ``link.*`` counters. A divergence means
    some path adds bytes to one ledger only — the exact bug class a counter
    refactor can introduce silently.
    """
    counters = result.counters
    rows = result.traffic.as_lists()
    total = result.traffic.total_bytes()
    if counters.get("link.bytes", 0) != total:
        yield Violation(
            "wire-byte-conservation",
            f"link.bytes={counters.get('link.bytes', 0)} but traffic matrix "
            f"holds {total} B",
        )
    for gpu in range(len(rows)):
        egress = sum(rows[gpu])
        ingress = sum(row[gpu] for row in rows)
        c_egress = counters.get(f"link.egress{gpu}.bytes", 0)
        c_ingress = counters.get(f"link.ingress{gpu}.bytes", 0)
        if c_egress != egress:
            yield Violation(
                "wire-byte-conservation",
                f"link.egress{gpu}.bytes={c_egress} but traffic row sums to {egress}",
            )
        if c_ingress != ingress:
            yield Violation(
                "wire-byte-conservation",
                f"link.ingress{gpu}.bytes={c_ingress} but traffic column sums to {ingress}",
            )


@invariant("counters-finite-nonnegative")
def check_counters_sane(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Every hardware counter is a finite, non-negative number."""
    for name, value in result.counters.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            yield Violation(
                "counters-finite-nonnegative", f"counter {name} = {value!r}"
            )


@invariant("gpu-rollup-conservation")
def check_rollups(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Per-GPU scoped counters sum exactly to their system-wide roll-up."""
    sums: "dict[str, float]" = {}
    for name, value in result.counters.items():
        head, _, rest = name.partition(".")
        if rest and head.startswith("gpu") and head[3:].isdigit():
            sums[rest] = sums.get(rest, 0) + value
    for base, total in sorted(sums.items()):
        aggregate = result.counters.get(base)
        if aggregate is None:
            yield Violation(
                "gpu-rollup-conservation", f"scoped counter {base} has no roll-up"
            )
        elif not _close(aggregate, total):
            yield Violation(
                "gpu-rollup-conservation",
                f"{base}: roll-up {aggregate} != per-GPU sum {total}",
            )


@invariant("phase-timeline-tiles")
def check_phase_timeline(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Phase windows tile [0, total_time] contiguously and in order."""
    phases = result.phases
    if not phases:
        return
    cursor = 0.0
    for phase in phases:
        if not _close(phase.start, cursor, result.total_time):
            yield Violation(
                "phase-timeline-tiles",
                f"phase {phase.name!r} starts at {phase.start}, expected {cursor}",
            )
        if phase.end < phase.start:
            yield Violation(
                "phase-timeline-tiles",
                f"phase {phase.name!r} ends ({phase.end}) before it starts ({phase.start})",
            )
        cursor = phase.end
    if not _close(cursor, result.total_time):
        yield Violation(
            "phase-timeline-tiles",
            f"last phase ends at {cursor} but total_time is {result.total_time}",
        )


@invariant("phase-breakdown-sane")
def check_phase_breakdown(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Within each phase, component times fit inside the phase window."""
    for phase in result.phases:
        duration = phase.end - phase.start
        if phase.kernel_time < 0 or phase.exposed_transfer_time < 0:
            yield Violation(
                "phase-breakdown-sane",
                f"phase {phase.name!r} has negative components "
                f"(kernel {phase.kernel_time}, exposed {phase.exposed_transfer_time})",
            )
        if phase.kernel_time > duration * (1 + REL_EPS) + REL_EPS:
            yield Violation(
                "phase-breakdown-sane",
                f"phase {phase.name!r}: kernel_time {phase.kernel_time} exceeds "
                f"duration {duration}",
            )


@invariant("write-queue-accounting")
def check_write_queue(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Write-queue ledgers balance: every store is a hit or an insert."""
    for gpu, stats in enumerate(result.write_queue_stats):
        if stats.coalesced_hits + stats.inserts != stats.stores_seen:
            yield Violation(
                "write-queue-accounting",
                f"gpu{gpu}: hits {stats.coalesced_hits} + inserts {stats.inserts} "
                f"!= stores_seen {stats.stores_seen}",
            )
        if stats.bytes_out > stats.bytes_in:
            yield Violation(
                "write-queue-accounting",
                f"gpu{gpu}: bytes_out {stats.bytes_out} exceeds bytes_in {stats.bytes_in}",
            )
        if min(
            stats.stores_seen, stats.coalesced_hits, stats.inserts,
            stats.watermark_drains, stats.flush_drains, stats.atomics_bypassed,
            stats.bytes_in, stats.bytes_out, stats.atomic_bytes,
        ) < 0:
            yield Violation("write-queue-accounting", f"gpu{gpu}: negative counter")
        if stats.atomic_bytes > min(stats.bytes_in, stats.bytes_out):
            # Atomic bypass traffic is counted inside both ledgers, so it
            # can never exceed either; a violation means the carve-out that
            # feeds bandwidth_reduction is double-counting.
            yield Violation(
                "write-queue-accounting",
                f"gpu{gpu}: atomic_bytes {stats.atomic_bytes} exceeds "
                f"bytes_in {stats.bytes_in} or bytes_out {stats.bytes_out}",
            )


@invariant("gps-tlb-accounting")
def check_gps_tlb(result: SimulationResult, config=None) -> Iterator[Violation]:
    """GPS-TLB counters are consistent (evictions never exceed misses)."""
    for gpu, stats in enumerate(result.gps_tlb_stats):
        if min(stats.hits, stats.misses, stats.evictions) < 0:
            yield Violation("gps-tlb-accounting", f"gpu{gpu}: negative TLB counter")
        if stats.evictions > stats.misses:
            yield Violation(
                "gps-tlb-accounting",
                f"gpu{gpu}: evictions {stats.evictions} exceed misses {stats.misses}",
            )


@invariant("subscriber-histogram-sane")
def check_subscriber_histogram(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Histogram keys are subscriber counts within the system's GPU count."""
    limit = max(result.num_gpus, len(result.traffic.as_lists()))
    for count, pages in result.subscriber_histogram.items():
        if not 0 <= count <= limit:
            yield Violation(
                "subscriber-histogram-sane",
                f"subscriber count {count} outside [0, {limit}]",
            )
        if pages < 0:
            yield Violation(
                "subscriber-histogram-sane",
                f"negative page count {pages} for subscriber count {count}",
            )


@invariant("fault-accounting")
def check_faults(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Fault counters are non-negative and only fault paradigms take them."""
    if result.fault_count < 0 or result.pages_migrated < 0:
        yield Violation(
            "fault-accounting",
            f"negative fault accounting ({result.fault_count}, {result.pages_migrated})",
        )
    if result.paradigm not in _FAULTING and result.fault_count:
        yield Violation(
            "fault-accounting",
            f"paradigm {result.paradigm!r} reports {result.fault_count} faults",
        )


@invariant("single-gpu-no-traffic")
def check_single_gpu(result: SimulationResult, config=None) -> Iterator[Violation]:
    """A one-GPU run has no interconnect to move bytes over.

    Only meaningful when the *system* has one GPU too — a 1-GPU program on
    a larger system can still broadcast to permanently subscribed peers.
    """
    if (
        result.num_gpus == 1
        and len(result.traffic.as_lists()) == 1
        and result.interconnect_bytes != 0
    ):
        yield Violation(
            "single-gpu-no-traffic",
            f"1-GPU run moved {result.interconnect_bytes} B over the interconnect",
        )


@invariant("serialization-roundtrip")
def check_roundtrip(result: SimulationResult, config=None) -> Iterator[Violation]:
    """``to_dict`` survives JSON and ``from_dict`` byte-identically.

    This is the exact property the disk cache, the process pool, and the
    service all rely on; a result that fails it will diverge across
    execution paths even when the simulation itself is deterministic.
    """
    first = result.to_dict()
    wire = json.dumps(first, sort_keys=True)
    second = SimulationResult.from_dict(json.loads(wire)).to_dict()
    if json.dumps(second, sort_keys=True) != wire:
        yield Violation(
            "serialization-roundtrip", "to_dict -> JSON -> from_dict is not lossless"
        )


@invariant("schedule-digest-present")
def check_digest(result: SimulationResult, config=None) -> Iterator[Violation]:
    """Every executor-produced result carries its 64-hex schedule digest."""
    digest = result.extras.get("schedule_digest")
    if not isinstance(digest, str) or len(digest) != 64 or not all(
        c in "0123456789abcdef" for c in digest
    ):
        yield Violation(
            "schedule-digest-present", f"schedule_digest is {digest!r}"
        )


@invariant("infinite-bandwidth-free-wire")
def check_infinite_bandwidth(
    result: SimulationResult, config: "SystemConfig | None" = None
) -> Iterator[Violation]:
    """On an infinite link, no phase exposes communication time.

    Transfers cost zero on an infinite-bandwidth, zero-latency link, so the
    entire makespan must be kernel time plus barrier overhead — if exposed
    transfer time appears, the config's link was not honoured.
    """
    if config is None or not math.isinf(config.link.bandwidth) or config.link.latency:
        return
    for phase in result.phases:
        sync = 10e-6 if result.num_gpus > 1 else 0.0  # PHASE_SYNC_OVERHEAD
        if phase.exposed_transfer_time > sync * (1 + REL_EPS) + REL_EPS:
            yield Violation(
                "infinite-bandwidth-free-wire",
                f"phase {phase.name!r} exposes {phase.exposed_transfer_time}s of "
                "transfer on an infinite link",
            )


# -- execution checks ----------------------------------------------------------


@invariant("spans-cover-makespan", layer="execution")
def check_span_coverage(executor, result: SimulationResult) -> Iterator[Violation]:
    """Every span fits inside [0, total_time]; the makespan is reached."""
    spans = executor.engine.spans()
    latest = 0.0
    for span in spans:
        if span.start < -REL_EPS or span.end < span.start:
            yield Violation(
                "spans-cover-makespan", f"span {span.name!r} has window "
                f"[{span.start}, {span.end}]"
            )
        if span.end > result.total_time * (1 + REL_EPS) + REL_EPS:
            yield Violation(
                "spans-cover-makespan",
                f"span {span.name!r} ends at {span.end}, after total_time "
                f"{result.total_time}",
            )
        latest = max(latest, span.end)
    if spans and result.total_time > 0 and latest < result.total_time * 0.5:
        yield Violation(
            "spans-cover-makespan",
            f"spans end at {latest} but total_time is {result.total_time}: "
            "over half the timeline has no scheduled work",
        )


@invariant("spans-exclusive-per-track", layer="execution")
def check_span_exclusivity(executor, result: SimulationResult) -> Iterator[Violation]:
    """Spans on one track (resource) never overlap: resources serialise."""
    tracks: "dict[str, list]" = {}
    for span in executor.engine.spans():
        tracks.setdefault(span.track, []).append(span)
    for track, spans in sorted(tracks.items()):
        ordered = sorted(spans, key=lambda s: (s.start, s.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end - REL_EPS * max(1.0, prev.end):
                yield Violation(
                    "spans-exclusive-per-track",
                    f"track {track!r}: {prev.name!r} [{prev.start}, {prev.end}] "
                    f"overlaps {cur.name!r} [{cur.start}, {cur.end}]",
                )
                break


@invariant("span-busy-conservation", layer="execution")
def check_busy_conservation(executor, result: SimulationResult) -> Iterator[Violation]:
    """Per resource, span durations sum to the resource's busy time."""
    busy: "dict[str, float]" = {}
    for span in executor.engine.spans():
        busy[span.track] = busy.get(span.track, 0.0) + (span.end - span.start)
    for name, resource in sorted(executor.engine._resources.items()):
        recorded = busy.get(name, 0.0)
        if not _close(recorded, resource.busy_time, result.total_time):
            yield Violation(
                "span-busy-conservation",
                f"resource {name!r}: spans cover {recorded}s of busy time "
                f"but the resource accumulated {resource.busy_time}s",
            )


@invariant("schedule-digest-stable", layer="execution")
def check_digest_stability(executor, result: SimulationResult) -> Iterator[Violation]:
    """The digest in the result matches a recomputation from the engine."""
    digest = executor.schedule_digest()
    if result.extras.get("schedule_digest") != digest:
        yield Violation(
            "schedule-digest-stable",
            f"result carries digest {result.extras.get('schedule_digest')!r} but "
            f"the engine recomputes {digest!r}",
        )


# -- family checks -------------------------------------------------------------


@invariant("infinite-lower-bound", layer="family")
def check_infinite_lower_bound(
    results: "dict[str, SimulationResult]",
) -> Iterator[Violation]:
    """Infinite bandwidth lower-bounds every real configuration (section 6)."""
    infinite = results.get("infinite")
    if infinite is None:
        return
    for paradigm, result in sorted(results.items()):
        if result.total_time < infinite.total_time * (1 - REL_EPS) - REL_EPS:
            yield Violation(
                "infinite-lower-bound",
                f"{paradigm} finished in {result.total_time}s, faster than the "
                f"infinite-bandwidth bound {infinite.total_time}s",
            )


@invariant("subscription-never-adds-traffic", layer="family")
def check_subscription_traffic(
    results: "dict[str, SimulationResult]",
) -> Iterator[Violation]:
    """Subscription tracking only ever removes subscribers, hence traffic.

    ``gps_nosub`` is GPS with every GPU permanently subscribed to every
    page; automatic tracking unsubscribes GPUs, so real GPS traffic is
    bounded above by the no-subscription broadcast (paper Figure 11).
    """
    gps, nosub = results.get("gps"), results.get("gps_nosub")
    if gps is None or nosub is None or gps.num_gpus < 2:
        return
    if gps.interconnect_bytes > nosub.interconnect_bytes:
        yield Violation(
            "subscription-never-adds-traffic",
            f"gps moved {gps.interconnect_bytes} B but gps_nosub (all "
            f"subscribed) moved only {nosub.interconnect_bytes} B",
        )


@invariant("gps-bounded-by-memcpy", layer="family")
def check_gps_vs_memcpy(results: "dict[str, SimulationResult]") -> Iterator[Violation]:
    """GPS publishes store bytes; memcpy broadcasts whole dirty pages.

    Proactive fine-grained publication can never move more data than
    page-granular broadcast of the same dirty set (paper Figure 10 —
    except RDL, GPS and memcpy bound the traffic of the others).
    """
    gps, memcpy = results.get("gps"), results.get("memcpy")
    if gps is None or memcpy is None or gps.num_gpus < 2:
        return
    if gps.interconnect_bytes > memcpy.interconnect_bytes:
        yield Violation(
            "gps-bounded-by-memcpy",
            f"gps moved {gps.interconnect_bytes} B, more than memcpy's "
            f"page broadcast {memcpy.interconnect_bytes} B",
        )


@invariant("same-program-identity", layer="family")
def check_family_identity(results: "dict[str, SimulationResult]") -> Iterator[Violation]:
    """All family members simulated the same program on the same system."""
    names = {r.program_name for r in results.values()}
    gpus = {r.num_gpus for r in results.values()}
    if len(names) > 1 or len(gpus) > 1:
        yield Violation(
            "same-program-identity",
            f"family mixes programs {sorted(names)} / GPU counts {sorted(gpus)}",
        )
    for paradigm, result in results.items():
        if result.paradigm != paradigm:
            yield Violation(
                "same-program-identity",
                f"result filed under {paradigm!r} reports paradigm "
                f"{result.paradigm!r}",
            )


# -- entry points --------------------------------------------------------------


def _run_layer(layer: str, *args) -> "list[Violation]":
    violations: "list[Violation]" = []
    for name, (check_layer, fn) in ORACLE_CHECKS.items():
        if check_layer == layer:
            violations.extend(fn(*args))
    return violations


def check_result(
    result: SimulationResult, config: "Optional[SystemConfig]" = None
) -> "list[Violation]":
    """Run every result-layer invariant; returns all violations found."""
    return _run_layer("result", result, config)


def check_execution(executor, result: SimulationResult) -> "list[Violation]":
    """Run the execution-layer invariants against a live executor."""
    return _run_layer("execution", executor, result)


def check_family(results: "dict[str, SimulationResult]") -> "list[Violation]":
    """Run cross-paradigm laws over one program's paradigm family."""
    return _run_layer("family", results)


def oracle_catalogue() -> "list[tuple[str, str, str]]":
    """(name, layer, first docstring line) for every registered check."""
    catalogue = []
    for name, (layer, fn) in ORACLE_CHECKS.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        catalogue.append((name, layer, doc[0] if doc else ""))
    return catalogue
