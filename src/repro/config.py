"""System configuration: GPU, GPS structures, interconnect, and full systems.

The default values reproduce Table 1 of the paper (NVIDIA GV100-based
simulation settings) plus the interconnect generations used in the evaluation
(PCIe 3.0 through a projected PCIe 6.0, and an infinite-bandwidth ideal).

All configs are frozen dataclasses: a configuration describes hardware, and
hardware does not mutate mid-simulation. Derived quantities are exposed as
properties so the stored fields stay minimal and validation stays in
``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .units import GB_S, GHZ, GiB, KiB, MiB, TB_S, US, is_power_of_two

# Page sizes studied in the paper's page-size sensitivity (section 7.4).
PAGE_4K = 4 * KiB
PAGE_64K = 64 * KiB
PAGE_2M = 2 * MiB

#: Cache block (line) size used throughout; paper Table 1.
CACHE_BLOCK = 128


@dataclass(frozen=True)
class GPUConfig:
    """A single GPU's compute and memory hierarchy parameters.

    Defaults model an NVIDIA GV100 (paper Table 1): 80 SMs, 64 CUDA cores
    per SM, 16 GB of HBM2, and a 6 MB L2.
    """

    name: str = "GV100"
    num_sms: int = 80
    cores_per_sm: int = 64
    clock_hz: float = 1.53 * GHZ
    warp_size: int = 32
    max_threads_per_sm: int = 2048
    max_threads_per_cta: int = 1024
    dram_bytes: int = 16 * GiB
    dram_bandwidth: float = 900 * GB_S
    l2_bytes: int = 6 * MiB
    l2_bandwidth: float = 2.5 * TB_S
    l2_assoc: int = 16
    cache_block: int = CACHE_BLOCK
    #: Last-level TLB miss rate per access used by the access-tracking unit
    #: model (paper section 5.2 cites ~1.4 misses per thousand cycles).
    tlb_entries: int = 2048
    #: Serial penalty per kernel-footprint page beyond TLB coverage —
    #: models the page-walk storms that make 4 KiB pages 42% slower in the
    #: paper's page-size sensitivity (section 7.4).
    tlb_walk_penalty: float = 20e-9

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.cores_per_sm <= 0:
            raise ConfigError("GPU must have positive SM and core counts")
        if not is_power_of_two(self.cache_block):
            raise ConfigError(f"cache block must be a power of two, got {self.cache_block}")
        if self.dram_bandwidth <= 0 or self.l2_bandwidth <= 0:
            raise ConfigError("memory bandwidths must be positive")
        if self.l2_bytes <= 0 or self.dram_bytes <= 0:
            raise ConfigError("memory sizes must be positive")

    @property
    def throughput_ops(self) -> float:
        """Peak scalar operations per second (one op per core per cycle)."""
        return self.num_sms * self.cores_per_sm * self.clock_hz


@dataclass(frozen=True)
class GPSConfig:
    """Parameters of the GPS hardware structures (paper Table 1, section 5).

    The remote write queue is fully associative at cache-block granularity;
    the high watermark defaults to ``entries - 1`` ("one less than the
    buffer's capacity to maximize coalescing opportunity", section 5.2).
    """

    write_queue_entries: int = 512
    write_queue_entry_bytes: int = 135
    #: Entries occupied before the queue starts draining the LRU entry.
    #: ``None`` means "capacity - 1", the paper's choice.
    high_watermark: int | None = None
    gps_tlb_entries: int = 32
    gps_tlb_assoc: int = 8
    page_size: int = PAGE_64K
    virtual_address_bits: int = 49
    physical_address_bits: int = 47
    #: VA range covered by the access-tracking bitmap (64 KiB of DRAM for
    #: 32 GiB of 64 KiB pages; paper section 5.2).
    tracking_range_bytes: int = 32 * GiB

    def __post_init__(self) -> None:
        if self.write_queue_entries <= 0:
            raise ConfigError("write queue needs at least one entry")
        watermark = self.effective_watermark
        if not 0 < watermark <= self.write_queue_entries:
            raise ConfigError(
                f"high watermark {watermark} out of range for "
                f"{self.write_queue_entries} entries"
            )
        if self.gps_tlb_entries % self.gps_tlb_assoc != 0:
            raise ConfigError("GPS-TLB entries must divide evenly into its associativity")
        if not is_power_of_two(self.page_size):
            raise ConfigError(f"page size must be a power of two, got {self.page_size}")
        if self.page_size < CACHE_BLOCK:
            raise ConfigError(
                f"page size {self.page_size} is smaller than the {CACHE_BLOCK} B cache line"
            )

    @property
    def effective_watermark(self) -> int:
        """The watermark actually used: explicit value or ``entries - 1``."""
        if self.high_watermark is not None:
            return self.high_watermark
        return max(1, self.write_queue_entries - 1)

    @property
    def tracking_bitmap_bytes(self) -> int:
        """DRAM footprint of the access-tracking bitmap, one bit per page."""
        pages = self.tracking_range_bytes // self.page_size
        return max(1, pages // 8)

    @property
    def vpn_bits(self) -> int:
        """Virtual page number width for the configured page size."""
        return self.virtual_address_bits - int(math.log2(self.page_size))

    @property
    def ppn_bits(self) -> int:
        """Physical page number width for the configured page size."""
        return self.physical_address_bits - int(math.log2(self.page_size))

    def gps_pte_bits(self, num_gpus: int) -> int:
        """Minimum GPS-PTE width: a VPN plus one PPN per possible *remote* subscriber.

        For 64 KiB pages (VPN=33, PPN=31) and 4 GPUs the paper (section 5.1)
        quotes 126 bits, i.e. ``33 + 31 * 3`` — the VPN tag plus one PPN per
        remote GPU. Valid/metadata bits are implementation bookkeeping on top
        of this architectural minimum and are deliberately not counted.
        """
        remote = num_gpus - 1
        return self.vpn_bits + self.ppn_bits * remote


@dataclass(frozen=True)
class LinkConfig:
    """A point-to-point inter-GPU link: per-direction bandwidth and latency."""

    name: str
    bandwidth: float  # bytes/second, per direction
    latency: float  # seconds, one-way
    #: Protocol efficiency: fraction of raw bandwidth usable as payload.
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 and not math.isinf(self.bandwidth):
            raise ConfigError("link bandwidth must be positive")
        if not 0 < self.efficiency <= 1.0:
            raise ConfigError("link efficiency must be in (0, 1]")
        if self.latency < 0:
            raise ConfigError("link latency cannot be negative")

    @property
    def effective_bandwidth(self) -> float:
        """Payload bandwidth after protocol overhead."""
        return self.bandwidth * self.efficiency


# -- interconnect generations used in the evaluation --------------------------
# PCIe per-direction x16 payload bandwidths; PCIe 6.0 per paper section 7.3
# "operating at 128GB/s". The infinite link is the upper-bound comparison.
PCIE3 = LinkConfig("PCIe 3.0", bandwidth=16 * GB_S, latency=1.4 * US, efficiency=0.85)
PCIE4 = LinkConfig("PCIe 4.0", bandwidth=32 * GB_S, latency=1.2 * US, efficiency=0.85)
PCIE5 = LinkConfig("PCIe 5.0", bandwidth=64 * GB_S, latency=1.0 * US, efficiency=0.85)
PCIE6 = LinkConfig("PCIe 6.0 (projected)", bandwidth=128 * GB_S, latency=0.8 * US, efficiency=0.9)
NVLINK2 = LinkConfig("NVLink 2", bandwidth=150 * GB_S, latency=0.7 * US, efficiency=0.92)
NVLINK3 = LinkConfig("NVLink 3", bandwidth=300 * GB_S, latency=0.6 * US, efficiency=0.92)
INFINITE_LINK = LinkConfig("Infinite", bandwidth=math.inf, latency=0.0)

LINKS_BY_NAME = {
    "pcie3": PCIE3,
    "pcie4": PCIE4,
    "pcie5": PCIE5,
    "pcie6": PCIE6,
    "nvlink2": NVLINK2,
    "nvlink3": NVLINK3,
    "infinite": INFINITE_LINK,
}


@dataclass(frozen=True)
class UMConfig:
    """Unified Memory cost parameters (fault-based and hint-based migration).

    The fault latency covers GPU fault delivery, host driver handling, and
    TLB invalidation; public measurements place the end-to-end cost in the
    20-50 us range, and batching amortises some of it.
    """

    fault_latency: float = 25 * US
    #: Cost of the TLB shootdown triggered when a read-duplicated page
    #: collapses on a write (paper section 2.1).
    shootdown_latency: float = 8 * US
    #: Fraction of hint-driven prefetch traffic that overlaps prior compute.
    prefetch_overlap: float = 0.30
    #: Faults the driver services per stall episode; real UM batches
    #: neighbouring faults, amortising the per-fault latency.
    fault_batch: int = 8
    #: Fault-storm saturation: the driver pipelines concurrent faults, so
    #: the serial stall grows as ``latency * m / (1 + m / saturation)`` —
    #: linear for small fault counts, capped near ``latency * saturation``
    #: for storms (the driver's batch-service ceiling).
    fault_storm_saturation: int = 48
    #: Achieved fraction of link bandwidth for page-sized migration DMA
    #: (small transfers plus driver bookkeeping).
    migration_efficiency: float = 0.45


@dataclass(frozen=True)
class SystemConfig:
    """A whole multi-GPU system: GPUs, interconnect, GPS and UM parameters."""

    num_gpus: int = 4
    gpu: GPUConfig = field(default_factory=GPUConfig)
    link: LinkConfig = PCIE6
    gps: GPSConfig = field(default_factory=GPSConfig)
    um: UMConfig = field(default_factory=UMConfig)
    #: Fraction of remote-load latency hidden by warp-level multithreading
    #: in the RDL paradigm (0 = fully exposed, 1 = fully hidden).
    rdl_latency_hiding: float = 0.55

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError("a system needs at least one GPU")
        if not 0 <= self.rdl_latency_hiding < 1:
            raise ConfigError("rdl_latency_hiding must be in [0, 1)")

    @property
    def page_size(self) -> int:
        """Page size shared by the conventional and GPS address spaces."""
        return self.gps.page_size

    def with_link(self, link: LinkConfig) -> "SystemConfig":
        """Return a copy of this system using a different interconnect."""
        return dataclasses.replace(self, link=link)

    def with_num_gpus(self, num_gpus: int) -> "SystemConfig":
        """Return a copy of this system with a different GPU count."""
        return dataclasses.replace(self, num_gpus=num_gpus)

    def with_page_size(self, page_size: int) -> "SystemConfig":
        """Return a copy of this system with a different page size."""
        return dataclasses.replace(self, gps=dataclasses.replace(self.gps, page_size=page_size))


def default_system(num_gpus: int = 4, link: LinkConfig = PCIE6) -> SystemConfig:
    """The evaluation system: ``num_gpus`` GV100s on the given interconnect."""
    return SystemConfig(num_gpus=num_gpus, link=link)


# -- canonical config fingerprinting ------------------------------------------

#: Bump when a :class:`SystemConfig` field changes *meaning* (not value):
#: fingerprints embed this, so every cached simulation result keyed on the
#: old interpretation invalidates at once.
CONFIG_SCHEMA_VERSION = 1


def config_fingerprint(config: SystemConfig, *, extra=None) -> str:
    """Complete, canonical, order-stable fingerprint of a :class:`SystemConfig`.

    Every field of the config — including all nested :class:`GPUConfig`,
    :class:`GPSConfig`, :class:`LinkConfig`, and :class:`UMConfig` knobs —
    participates via :func:`dataclasses.asdict`, so two configs differing in
    *any* field hash differently. The JSON canonicalisation sorts keys and
    uses Python's shortest-roundtrip float repr, making the digest stable
    across processes and platforms. ``extra`` (any JSON-able value) is folded
    in verbatim; the memoised runner uses it to scope keys by workload,
    paradigm, and model version.
    """
    payload = {
        "schema": CONFIG_SCHEMA_VERSION,
        "config": dataclasses.asdict(config),
    }
    if extra is not None:
        payload["extra"] = extra
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
