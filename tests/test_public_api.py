"""API-contract tests: the documented public surface exists and is sane."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.3.0"

    def test_key_callables(self):
        assert callable(repro.simulate)
        assert callable(repro.default_system)
        assert callable(repro.get_workload)
        assert callable(repro.make_executor)

    def test_registries_consistent(self):
        assert set(repro.FIGURE8_ORDER) <= set(repro.PARADIGMS)
        assert set(repro.FIGURE8_ORDER) <= set(repro.LABELS)
        assert len(repro.workload_names()) == 8


class TestSubpackages:
    MODULES = [
        "repro.cache",
        "repro.core",
        "repro.core.litmus",
        "repro.gpu",
        "repro.harness",
        "repro.harness.ascii_plot",
        "repro.harness.export",
        "repro.interconnect",
        "repro.memory",
        "repro.obs",
        "repro.obs.export",
        "repro.obs.profile",
        "repro.obs.registry",
        "repro.obs.span",
        "repro.paradigms",
        "repro.sim",
        "repro.system",
        "repro.system.metrics",
        "repro.trace",
        "repro.trace.io",
        "repro.workloads",
        "repro.cli",
    ]

    @pytest.mark.parametrize("module", MODULES)
    def test_imports_and_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"

    def test_public_classes_documented(self):
        from repro.core.runtime import GPSRuntime
        from repro.core.write_queue import RemoteWriteQueue
        from repro.paradigms.base import ParadigmExecutor
        from repro.sim.engine import Engine

        for cls in (GPSRuntime, RemoteWriteQueue, ParadigmExecutor, Engine):
            assert cls.__doc__
            for name, attr in vars(cls).items():
                if callable(attr) and not name.startswith("_"):
                    assert attr.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        leaf_errors = [
            errors.ConfigError,
            errors.AllocationError,
            errors.TranslationError,
            errors.SubscriptionError,
            errors.TraceError,
            errors.SimulationError,
            errors.ParadigmError,
        ]
        for err in leaf_errors:
            assert issubclass(err, errors.ReproError)
            assert issubclass(err, Exception)
