"""Differential-harness tests: path identity, divergence localisation."""

from __future__ import annotations

import os

import pytest

from repro.core.gps_unit import GPSUnit
from repro.system import analysis as analysis_module
from repro.system.analysis import ProgramAnalysis
from repro.verify.differential import (
    CaseReport,
    _compare_path,
    _released_case,
    _scoped_env,
    _warm_cold_case,
    canonical_payload,
    run_differential,
)
from repro.verify.fuzzer import FuzzSpec, generate_program
from repro.paradigms import PARADIGMS

import repro


class TestScopedEnv:
    def test_sets_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with _scoped_env(REPRO_NO_CACHE=None, REPRO_CACHE_DIR="/tmp/x"):
            assert "REPRO_NO_CACHE" not in os.environ
            assert os.environ["REPRO_CACHE_DIR"] == "/tmp/x"
        assert os.environ["REPRO_NO_CACHE"] == "1"
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        with pytest.raises(RuntimeError):
            with _scoped_env(REPRO_MAX_WORKERS="7"):
                raise RuntimeError("boom")
        assert os.environ["REPRO_MAX_WORKERS"] == "3"


class TestCompareLocalisation:
    def _payloads(self):
        program = generate_program(1, 2, scale=0.25, iterations=2)
        config = repro.default_system(2)
        return canonical_payload(PARADIGMS["gps"](program, config).run())

    def test_identical_payloads_pass(self):
        payload = self._payloads()
        report = CaseReport(FuzzSpec(1, 2, 0.25, 2))
        report.payloads["gps"] = {"direct": payload}
        _compare_path(report, "pool", "gps", payload)
        assert report.ok

    def test_assembly_divergence_is_localised(self):
        payload = self._payloads()
        report = CaseReport(FuzzSpec(1, 2, 0.25, 2))
        report.payloads["gps"] = {"direct": payload}
        # Same schedule digest, different field: result-assembly bug.
        _compare_path(report, "pool", "gps", payload.replace('"num_gpus":2', '"num_gpus":3'))
        (violation,) = report.violations
        assert violation.check == "differential-pool"
        assert "result assembly or serialisation" in violation.message

    def test_scheduler_divergence_is_localised(self):
        payload = self._payloads()
        report = CaseReport(FuzzSpec(1, 2, 0.25, 2))
        report.payloads["gps"] = {"direct": payload}
        digest = payload.split('"schedule_digest":"')[1][:64]
        _compare_path(
            report, "service", "gps", payload.replace(digest, "f" * 64)
        )
        (violation,) = report.violations
        assert violation.check == "differential-service"
        assert "the scheduler diverged" in violation.message


class TestWarmColdRelation:
    def test_warm_process_matches_cold(self):
        for seed in range(3):
            report = CaseReport(FuzzSpec(seed, 2, 0.25, 2))
            _warm_cold_case(report.spec, "pcie6", report)
            assert report.ok, [str(v) for v in report.violations]

    def test_catches_a_window_memo_keyed_without_the_watermark(self, monkeypatch):
        def resolve_without_watermark(unit):
            pending, unit._pending = unit._pending, []
            key = (unit._lines_per_page, tuple(k for k, _, _ in pending))
            return unit.window_memo.lookup(key, lambda: unit._replay_window(pending))

        monkeypatch.setattr(GPSUnit, "_resolve_window", resolve_without_watermark)
        report = CaseReport(FuzzSpec(0, 2, 0.25, 2))
        _warm_cold_case(report.spec, "pcie6", report)
        assert report.violations
        assert {v.check for v in report.violations} == {"differential-warm-cold"}

    @pytest.mark.parametrize("seed", [0, 4])
    def test_catches_an_l2_memo_keyed_by_buffer_names(self, monkeypatch, seed):
        # Warm and cold runs visit kernels in one order, so this coarse key
        # gives the same wrong rate on both sides; only the memo-free
        # recomputation sees it.
        original = ProgramAnalysis._warm_l2_hit_rate

        def by_buffer_names(analysis, reads, streams):
            key = ("names",) + tuple(fp.access.buffer for fp in reads)
            if key not in analysis._l2_memo:
                analysis._l2_memo[key] = original(analysis, reads, streams)
            return analysis._l2_memo[key]

        monkeypatch.setattr(ProgramAnalysis, "_warm_l2_hit_rate", by_buffer_names)
        report = CaseReport(FuzzSpec(seed, 2, 0.25, 2))
        _warm_cold_case(report.spec, "pcie6", report)
        assert report.violations
        assert {v.check for v in report.violations} == {"differential-memo-free"}
        assert all("L2 hit rate" in v.message for v in report.violations)

    @pytest.mark.parametrize("paradigm", ["um", "memcpy"])
    def test_covers_demand_and_bulk_paradigms(self, monkeypatch, paradigm):
        # A stand-in for a memo keyed on too little: the result depends on
        # how much of the analysis the process had already built.
        class HistoryDependent(PARADIGMS[paradigm]):
            def run(self):
                seen = len(self.analysis._footprints)
                result = super().run()
                result.total_time += seen
                return result

        monkeypatch.setitem(PARADIGMS, paradigm, HistoryDependent)
        report = CaseReport(FuzzSpec(0, 2, 0.25, 2))
        _warm_cold_case(report.spec, "pcie6", report)
        assert [v.message.split(":")[0] for v in report.violations] == [paradigm]


class TestReleasedStreamsRelation:
    def test_rebuilt_streams_match_cold(self):
        for seed in range(3):
            report = CaseReport(FuzzSpec(seed, 2, 0.25, 2))
            _released_case(report.spec, "pcie6", report)
            assert report.ok, [str(v) for v in report.violations]

    def test_catches_a_rebuild_that_skips_the_coalescer(self, monkeypatch):
        # The footprint coalesces with stats, a rebuild without: only a
        # rebuilt stream goes uncoalesced, and no cold run rebuilds.
        real = analysis_module.sm_coalesce
        monkeypatch.setattr(
            analysis_module, "sm_coalesce",
            lambda stream, stats=None: stream if stats is None else real(stream, stats),
        )
        report = CaseReport(FuzzSpec(0, 2, 0.25, 2))
        _released_case(report.spec, "pcie6", report)
        assert [v.check for v in report.violations] == ["differential-released-streams"] * 2

    def test_catches_an_unexercised_release(self, monkeypatch):
        monkeypatch.setattr(ProgramAnalysis, "release_streams", lambda analysis: None)
        report = CaseReport(FuzzSpec(0, 2, 0.25, 2))
        _released_case(report.spec, "pcie6", report)
        assert [v.message.split(": ")[1] for v in report.violations] == [
            "no store stream was rebuilt after its release"
        ] * 2


class TestRunDifferential:
    def test_three_paths_agree(self):
        # Service path is exercised by the service/e2e suites and the CLI
        # smoke; keep this core test on the three cheap paths.
        report = run_differential(
            range(2), num_gpus=2, scale=0.25, iterations=2,
            paradigms=("gps", "gps_nosub", "memcpy", "infinite"),
            use_service=False,
        )
        assert report.ok, [str(v) for _, v in report.violations]
        assert report.paths == ("direct", "cache", "pool")
        for case in report.cases:
            for paradigm, payloads in case.payloads.items():
                assert set(payloads) == {"direct", "cache", "pool"}
                assert len(set(payloads.values())) == 1, paradigm

    def test_rejects_unknown_paradigm(self):
        with pytest.raises(ValueError, match="unknown paradigms"):
            run_differential(range(1), paradigms=("gps", "nope"))

    def test_progress_messages_flow(self):
        messages = []
        report = run_differential(
            range(1), num_gpus=2, scale=0.25, iterations=2,
            paradigms=("gps",), use_service=False, progress=messages.append,
        )
        assert report.ok
        assert any("direct" in m for m in messages)
        assert any("pool" in m for m in messages)


@pytest.mark.slow
class TestRunDifferentialService:
    def test_all_four_paths_agree(self):
        report = run_differential(
            range(1), num_gpus=2, scale=0.25, iterations=2,
            paradigms=("gps", "memcpy"), use_service=True,
        )
        assert report.ok, [str(v) for _, v in report.violations]
        for case in report.cases:
            for payloads in case.payloads.values():
                assert set(payloads) == {"direct", "cache", "pool", "service"}
                assert len(set(payloads.values())) == 1
