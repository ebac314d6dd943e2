"""Tests for the experiment drivers (reduced fidelity for speed).

Full-scale paper-shape assertions live in tests/integration; here each
driver is checked for structure and internal consistency at tiny scale.
"""

import pytest

import repro
from repro.config import PAGE_2M, PAGE_4K, PAGE_64K
from repro.harness import (
    fig1_motivation,
    fig3_bandwidth_gap,
    fig8_end_to_end,
    fig9_subscriber_distribution,
    fig10_interconnect_traffic,
    fig11_subscription_benefit,
    fig13_bandwidth_sensitivity,
    fig14_write_queue_hit_rate,
    gps_tlb_sensitivity,
    page_size_sensitivity,
    table1_simulation_settings,
    table2_applications,
)

FAST = dict(scale=0.1, iterations=2, workloads=["jacobi", "pagerank"])


class TestFig1:
    def test_interconnect_ordering(self):
        result = fig1_motivation(**FAST)
        mean = result["geomean"]
        assert mean["pcie3"] < mean["pcie6"] < mean["infinite"]


class TestFig3:
    def test_gap_band(self):
        result = fig3_bandwidth_gap()
        assert len(result["rows"]) == 5
        assert result["min_gap"] >= 2.5


class TestFig8:
    def test_structure(self):
        result = fig8_end_to_end(**FAST)
        assert set(result["speedups"]) == {"jacobi", "pagerank"}
        for per_paradigm in result["speedups"].values():
            assert set(per_paradigm) == set(result["paradigms"])
        assert 0 < result["opportunity_captured"] <= 1.0

    def test_gps_best_real_paradigm(self):
        result = fig8_end_to_end(**FAST)
        for workload, per_paradigm in result["speedups"].items():
            best_real = max(
                v for k, v in per_paradigm.items() if k != "infinite"
            )
            assert per_paradigm["gps"] == best_real, workload


class TestFig9:
    def test_percentages_sum_to_100(self):
        result = fig9_subscriber_distribution(scale=0.1, iterations=2)
        for workload, dist in result["percent_by_subscribers"].items():
            assert sum(dist.values()) == pytest.approx(100.0), workload

    def test_subscriber_counts_in_range(self):
        result = fig9_subscriber_distribution(scale=0.1, iterations=2)
        for dist in result["percent_by_subscribers"].values():
            assert all(2 <= count <= 4 for count in dist)

    def test_als_all_to_all(self):
        # ALS factors are consumed by every GPU; aside from a sliver of
        # false sharing on ratings-shard boundary pages, everything stays
        # subscribed all-to-all.
        result = fig9_subscriber_distribution(
            scale=0.1, iterations=2, workloads=["als"]
        )
        assert result["percent_by_subscribers"]["als"].get(4, 0) > 85.0


class TestFig10:
    def test_memcpy_is_unity_baseline(self):
        result = fig10_interconnect_traffic(**FAST)
        for workload in result["workloads"]:
            raw = result["raw_bytes"][workload]
            assert raw["memcpy"] > 0
            for paradigm, norm in result["normalized_to_memcpy"][workload].items():
                assert norm == pytest.approx(raw[paradigm] / raw["memcpy"])

    def test_gps_below_memcpy_for_jacobi(self):
        result = fig10_interconnect_traffic(
            scale=0.3, iterations=4, workloads=["jacobi"]
        )
        assert result["normalized_to_memcpy"]["jacobi"]["gps"] < 1.0


class TestFig11:
    def test_subscription_never_hurts(self):
        result = fig11_subscription_benefit(**FAST)
        for workload, row in result["speedups"].items():
            assert row["gps"] >= row["gps_nosub"] * 0.98, workload


class TestFig13:
    def test_speedup_monotonic_in_bandwidth(self):
        result = fig13_bandwidth_sensitivity(**FAST)
        for paradigm in ("memcpy", "gps"):
            series = [result["geomean"][l][paradigm] for l in result["links"]]
            assert series == sorted(series), paradigm


class TestFig14:
    def test_zero_hit_apps(self):
        result = fig14_write_queue_hit_rate(
            scale=0.2, queue_sizes=(64, 512), workloads=("jacobi", "pagerank")
        )
        for workload in ("jacobi", "pagerank"):
            assert all(v == 0.0 for v in result["hit_rate"][workload].values())

    def test_hit_rate_monotonic_in_size(self):
        result = fig14_write_queue_hit_rate(
            scale=0.2, queue_sizes=(16, 128, 512), workloads=("ct", "hit")
        )
        for workload in ("ct", "hit"):
            series = [result["hit_rate"][workload][s] for s in (16, 128, 512)]
            assert series == sorted(series)
            assert series[-1] > 0.2


class TestGPSTLB:
    def test_32_entries_near_perfect(self):
        result = gps_tlb_sensitivity(scale=0.2, tlb_sizes=(32,), workloads=["ct"])
        assert result["hit_rate"]["ct"][32] > 0.97

    def test_monotonic_in_size(self):
        result = gps_tlb_sensitivity(
            scale=0.2, tlb_sizes=(2, 32), workloads=["ct"]
        )
        rates = result["hit_rate"]["ct"]
        assert rates[32] >= rates[2]

    def test_woven_stream_keeps_each_line_with_its_payload(self, monkeypatch):
        # Every transaction of the synthetic stream carries its own payload,
        # so a weave that reorders the lines but not the payloads shows.
        import numpy as np

        from repro.core.write_queue import RemoteWriteQueue
        from repro.harness import experiments
        from repro.trace.expand import LineStream

        n = 1000
        stream = LineStream(np.arange(n, dtype=np.int64) * 3, np.arange(1, n + 1, dtype=np.int32))

        class OneStream:
            def store_streams(self, kernel):
                return [(None, stream, False)]

        config = repro.default_system(2)
        monkeypatch.setattr(
            experiments, "_store_streams_of", lambda workload, s: ({"k": None}, OneStream(), config)
        )
        passed = []
        real = RemoteWriteQueue.process_stream_batch

        def recording(self, lines, nbytes, atomic=False):
            passed.append((lines.copy(), np.asarray(nbytes).copy()))
            return real(self, lines, nbytes, atomic=atomic)

        monkeypatch.setattr(RemoteWriteQueue, "process_stream_batch", recording)
        experiments._gps_tlb_reduce({"num_gpus": 2, "workloads": ["jacobi"], "tlb_sizes": (32,)}, {})
        ((lines, nbytes),) = passed
        assert not np.array_equal(lines, stream.lines)  # the stream was woven
        original = set(zip(stream.lines.tolist(), stream.bytes_per_txn.tolist()))
        assert set(zip(lines.tolist(), nbytes.tolist())) == original


class TestPageSize:
    def test_64k_is_sweet_spot(self):
        result = page_size_sensitivity(
            scale=0.4, iterations=2, workloads=["jacobi", "ct"]
        )
        slowdown = result["slowdown_vs_64k"]
        assert slowdown[PAGE_64K] == 1.0
        assert slowdown[PAGE_4K] >= 1.0
        assert slowdown[PAGE_2M] >= 1.0


class TestTables:
    def test_table1_matches_paper(self):
        result = table1_simulation_settings()
        assert result["gpu"]["cache_block_bytes"] == 128
        assert result["gpu"]["streaming_multiprocessors"] == 80
        assert result["gps"]["remote_write_queue_entries"] == 512
        assert result["gps"]["tlb_entries"] == 32
        assert result["gps"]["virtual_address_bits"] == 49

    def test_table2_has_eight_rows(self):
        result = table2_applications()
        assert len(result["rows"]) == 8
        assert result["rows"][0]["name"] == "jacobi"
