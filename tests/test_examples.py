"""The runnable examples, driven at a tiny scale."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    """Import ``examples/<name>.py`` as a module without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInterconnectComparison:
    @pytest.fixture
    def example(self, monkeypatch):
        from repro.harness.runner import clear_run_cache

        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        clear_run_cache()
        yield load_example("interconnect_comparison")
        clear_run_cache()

    def test_sweep_is_one_grid_of_distinct_jobs(self, example, capsys):
        from repro.obs.host import HOST

        rows = example.sweep(2, scale=0.05, iterations=1)
        fleet = HOST.scope("host.fleet").as_dict()
        assert fleet["runs"] == 1
        # Every (link, paradigm, app) job plus one 1-GPU baseline per (link, app).
        distinct = len(example.LINKS) * len(example.APPS) * (len(example.PARADIGMS) + 1)
        assert fleet["jobs_submitted"] == fleet["jobs_computed"] == distinct == 75
        assert [row[0] for row in rows] == [
            example.repro.LINKS_BY_NAME[link].name for link in example.LINKS
        ]
        assert all(speedup > 0 for row in rows for speedup in row[1:])
        assert "Geomean speedup over 1 GPU (2 GPUs" in capsys.readouterr().out

    def test_only_the_link_bound_paradigms_move_with_bandwidth(self, example, capsys):
        rows = example.sweep(2, scale=0.05, iterations=1)
        columns = dict(zip(example.PARADIGMS, zip(*(row[1:] for row in rows))))
        assert len(set(columns["infinite"])) == 1  # infinite bandwidth ignores the link
        gps = columns["gps"]  # LINKS run from the slowest link to the fastest
        assert list(gps) == sorted(gps) and gps[0] < gps[-1]
