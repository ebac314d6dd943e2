"""Differential-harness tests: path identity, divergence localisation."""

from __future__ import annotations

import os

import pytest

from repro.core.gps_unit import GPSUnit
from repro.verify.differential import (
    CaseReport,
    _compare_path,
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


class TestRunDifferential:
    def test_four_paths_agree(self):
        # Service path is exercised by the service/e2e suites and the CLI
        # smoke; keep this core test on the four cheap paths.
        report = run_differential(
            range(2), num_gpus=2, scale=0.25, iterations=2,
            paradigms=("gps", "gps_nosub", "memcpy", "infinite"),
            use_service=False,
        )
        assert report.ok, [str(v) for _, v in report.violations]
        assert report.paths == ("direct", "cache", "store", "pool")
        for case in report.cases:
            for paradigm, payloads in case.payloads.items():
                assert set(payloads) == {"direct", "cache", "store", "pool"}
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
    def test_all_five_paths_agree(self):
        report = run_differential(
            range(1), num_gpus=2, scale=0.25, iterations=2,
            paradigms=("gps", "memcpy"), use_service=True,
        )
        assert report.ok, [str(v) for _, v in report.violations]
        for case in report.cases:
            for payloads in case.payloads.values():
                assert set(payloads) == {
                    "direct", "cache", "store", "pool", "service"
                }
                assert len(set(payloads.values())) == 1
