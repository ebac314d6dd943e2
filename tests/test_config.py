"""Unit tests for :mod:`repro.config` — the Table 1 parameter sets."""

import dataclasses
import math

import pytest

from repro.config import (
    CACHE_BLOCK,
    CONFIG_SCHEMA_VERSION,
    config_fingerprint,
    GPSConfig,
    GPUConfig,
    INFINITE_LINK,
    LinkConfig,
    LINKS_BY_NAME,
    PAGE_2M,
    PAGE_4K,
    PAGE_64K,
    PCIE3,
    PCIE6,
    SystemConfig,
    default_system,
)
from repro.errors import ConfigError
from repro.units import GiB, MiB


class TestGPUConfig:
    """Defaults must match paper Table 1."""

    def test_table1_values(self):
        gpu = GPUConfig()
        assert gpu.cache_block == 128
        assert gpu.dram_bytes == 16 * GiB
        assert gpu.num_sms == 80
        assert gpu.cores_per_sm == 64
        assert gpu.l2_bytes == 6 * MiB
        assert gpu.warp_size == 32
        assert gpu.max_threads_per_sm == 2048
        assert gpu.max_threads_per_cta == 1024

    def test_throughput_is_positive(self):
        assert GPUConfig().throughput_ops > 1e12

    def test_rejects_zero_sms(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_sms=0)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigError):
            GPUConfig(cache_block=100)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ConfigError):
            GPUConfig(dram_bandwidth=-1)


class TestGPSConfig:
    def test_table1_values(self):
        gps = GPSConfig()
        assert gps.write_queue_entries == 512
        assert gps.write_queue_entry_bytes == 135
        assert gps.gps_tlb_entries == 32
        assert gps.gps_tlb_assoc == 8
        assert gps.virtual_address_bits == 49
        assert gps.physical_address_bits == 47
        assert gps.page_size == PAGE_64K

    def test_default_watermark_is_capacity_minus_one(self):
        assert GPSConfig().effective_watermark == 511

    def test_explicit_watermark(self):
        assert GPSConfig(high_watermark=100).effective_watermark == 100

    def test_watermark_out_of_range(self):
        with pytest.raises(ConfigError):
            GPSConfig(high_watermark=513)

    def test_tracking_bitmap_is_64kib_for_32gib(self):
        # Paper section 5.2: "Tracking a 32GB virtual address range, the
        # bitmap requires only 64KB of DRAM".
        assert GPSConfig().tracking_bitmap_bytes == 64 * 1024

    def test_gps_pte_bits_matches_paper(self):
        # Paper section 5.1: VPN 33 bits + 3 remote PPNs of 31 bits = 126
        # for 4 GPUs with 64 KiB pages. The width is the architectural
        # minimum — no per-slot valid bits are counted (the docstring once
        # claimed one; the formula, which matches the paper, won).
        gps = GPSConfig()
        assert gps.vpn_bits == 33
        assert gps.ppn_bits == 31
        assert gps.gps_pte_bits(num_gpus=4) == 126

    def test_gps_pte_bits_scales_with_remote_subscribers(self):
        gps = GPSConfig()
        assert gps.gps_pte_bits(num_gpus=2) == 33 + 31  # one remote PPN
        assert gps.gps_pte_bits(num_gpus=16) == 33 + 31 * 15

    def test_gps_pte_bits_at_4k_pages(self):
        gps = GPSConfig(page_size=PAGE_4K)
        assert gps.vpn_bits == 37
        assert gps.ppn_bits == 35
        assert gps.gps_pte_bits(num_gpus=4) == 37 + 35 * 3

    def test_tlb_entries_must_divide_assoc(self):
        with pytest.raises(ConfigError):
            GPSConfig(gps_tlb_entries=30, gps_tlb_assoc=8)

    def test_page_size_power_of_two(self):
        with pytest.raises(ConfigError):
            GPSConfig(page_size=60000)

    @pytest.mark.parametrize("page_size", [1, 64])
    def test_page_smaller_than_line_rejected(self, page_size):
        with pytest.raises(ConfigError, match="cache line"):
            GPSConfig(page_size=page_size)
        with pytest.raises(ConfigError, match="cache line"):
            default_system(2).with_page_size(page_size)

    def test_page_of_one_line_accepted(self):
        assert GPSConfig(page_size=CACHE_BLOCK).page_size == CACHE_BLOCK


class TestLinkConfig:
    def test_pcie6_matches_paper(self):
        # Section 7.3: projected PCIe 6.0 operating at 128 GB/s.
        assert PCIE6.bandwidth == 128e9

    def test_effective_bandwidth_applies_efficiency(self):
        link = LinkConfig("x", bandwidth=100e9, latency=1e-6, efficiency=0.5)
        assert link.effective_bandwidth == 50e9

    def test_infinite_link(self):
        assert math.isinf(INFINITE_LINK.bandwidth)
        assert INFINITE_LINK.latency == 0.0

    def test_generations_monotonic(self):
        gens = [LINKS_BY_NAME[n] for n in ("pcie3", "pcie4", "pcie5", "pcie6")]
        bandwidths = [g.bandwidth for g in gens]
        assert bandwidths == sorted(bandwidths)
        assert bandwidths[0] * 8 == bandwidths[3]

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigError):
            LinkConfig("x", bandwidth=1e9, latency=0, efficiency=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            LinkConfig("x", bandwidth=1e9, latency=-1e-6)


class TestSystemConfig:
    def test_default_system(self):
        system = default_system(4)
        assert system.num_gpus == 4
        assert system.link is PCIE6
        assert system.page_size == PAGE_64K

    def test_with_link(self):
        system = default_system(4).with_link(PCIE3)
        assert system.link is PCIE3
        assert system.num_gpus == 4

    def test_with_num_gpus(self):
        assert default_system(4).with_num_gpus(16).num_gpus == 16

    def test_with_page_size(self):
        assert default_system(4).with_page_size(PAGE_2M).page_size == PAGE_2M
        assert default_system(4).with_page_size(PAGE_4K).gps.page_size == PAGE_4K

    def test_rejects_zero_gpus(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=0)

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            default_system(4).num_gpus = 8

    def test_cache_block_constant(self):
        assert CACHE_BLOCK == 128


class TestConfigFingerprint:
    """The canonical fingerprint behind the runner's cache keys.

    Completeness (every field participates) is covered exhaustively in
    tests/harness/test_runner_cache_key.py; here the basic contract.
    """

    def test_deterministic_and_hex(self):
        a = config_fingerprint(default_system(4))
        b = config_fingerprint(default_system(4))
        assert a == b
        assert len(a) == 64
        int(a, 16)  # valid hex digest

    def test_covers_nested_fields(self):
        base = default_system(4)
        tweaked = dataclasses.replace(
            base, um=dataclasses.replace(base.um, prefetch_overlap=0.9)
        )
        assert config_fingerprint(base) != config_fingerprint(tweaked)

    def test_extra_scopes_the_digest(self):
        base = default_system(4)
        assert config_fingerprint(base) != config_fingerprint(base, extra="jacobi")
        assert config_fingerprint(base, extra="jacobi") == config_fingerprint(
            base, extra="jacobi"
        )

    def test_infinite_bandwidth_hashable(self):
        assert len(config_fingerprint(default_system(4, INFINITE_LINK))) == 64

    def test_schema_version_pinned(self):
        # Bumping the schema version must be a deliberate act: it invalidates
        # every persisted simulation result at once.
        assert CONFIG_SCHEMA_VERSION == 1
