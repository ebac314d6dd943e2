"""Tests for the paradigm registry."""

import pytest

import repro
from repro.errors import ParadigmError
from repro.paradigms.registry import FIGURE8_ORDER, LABELS, PARADIGMS, make_executor
from tests.conftest import build


class TestRegistry:
    def test_figure8_order(self):
        assert FIGURE8_ORDER == ("um", "um_hints", "rdl", "memcpy", "gps", "infinite")

    def test_all_figure8_paradigms_registered(self):
        for name in FIGURE8_ORDER:
            assert name in PARADIGMS

    def test_ablation_variants_registered(self):
        assert "gps_nosub" in PARADIGMS
        assert "gps_nocoalesce" in PARADIGMS

    def test_labels_cover_registry(self):
        for name in PARADIGMS:
            assert name in LABELS

    def test_make_executor(self, system4):
        executor = make_executor("gps", build("jacobi"), system4)
        assert executor.name == "gps"

    def test_unknown_paradigm(self, system4):
        with pytest.raises(ParadigmError):
            make_executor("zzz", build("jacobi"), system4)

    def test_executor_names_match_keys(self, system4):
        program = build("jacobi")
        for name, cls in PARADIGMS.items():
            assert cls.name == name


class TestSimulateEntry:
    def test_every_paradigm_runs(self, system4):
        program = build("jacobi", iterations=2)
        for name in PARADIGMS:
            result = repro.simulate(program, name, system4)
            assert result.total_time > 0
            assert result.num_gpus == 4
