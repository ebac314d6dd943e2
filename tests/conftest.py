"""Shared fixtures: small systems and tiny workload scales.

Tests run the same machinery as the benchmarks but at reduced scale —
small buffers, few iterations — so the whole suite stays fast while still
exercising every code path end-to-end.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.config import GPSConfig, GPUConfig, PCIE6, SystemConfig, UMConfig

#: Workload scale used across tests: big enough for multi-page shards,
#: small enough to expand in milliseconds.
TINY = 0.1


# Keep the runner's disk cache out of the unit suite. Model changes must
# surface as test failures, never be papered over by stale persisted
# results — and tests must not litter ``.repro-cache/``. Applied at import
# time (not as a function-scoped autouse fixture) so class- and
# session-scoped result fixtures — which set up before any function-scoped
# fixture — see it too, and so the env-leak guard below treats it as the
# baseline. Cache-specific tests re-enable the layer against a tmp
# directory by overriding these variables themselves.
os.environ.setdefault("REPRO_NO_CACHE", "1")


# --- process-global leak detection -----------------------------------------
#
# The service, e2e, and verify suites toggle process-global knobs
# (``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``, ``REPRO_MAX_WORKERS``, ...)
# around live servers and process pools. A knob left set — or a stray
# ``.repro-cache/`` materialised in the working directory — silently
# changes the behaviour of every later test in the run, which is exactly the
# order-dependence this suite must never have. A fixture can't police this
# (its teardown runs *before* monkeypatch's restore), so the check brackets
# the whole runtest protocol: snapshot before any fixture sets up, compare
# after every finalizer has run. Leaks are repaired *and* reported, so the
# offending test errors instead of its victims failing.


def _repro_env() -> "dict[str, str]":
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


#: Working-directory litter the teardown guard polices.
_STRAY_DIRS = (".repro-cache",)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    item.stash[_ENV_KEY] = _repro_env()
    item.stash[_CACHE_KEY] = {
        name: (Path.cwd() / name).exists() for name in _STRAY_DIRS
    }
    return (yield)


_ENV_KEY = pytest.StashKey()
_CACHE_KEY = pytest.StashKey()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    result = (yield)  # every fixture finalizer (monkeypatch included) runs in here
    before = item.stash.get(_ENV_KEY, None)
    if before is None:  # setup never ran (collection error)
        return
    after = _repro_env()
    leaks = []
    for key in before.keys() | after.keys():
        if before.get(key) != after.get(key):
            leaks.append(f"{key}: {before.get(key)!r} -> {after.get(key)!r}")
            if key in before:  # repair for the tests that follow
                os.environ[key] = before[key]
            else:
                os.environ.pop(key, None)
    existed = item.stash.get(_CACHE_KEY, {})
    for name in _STRAY_DIRS:
        stray = Path.cwd() / name
        if not existed.get(name, True) and stray.exists():
            import shutil

            shutil.rmtree(stray, ignore_errors=True)
            leaks.append(f"created {stray}")
    if leaks:
        pytest.fail(
            f"{item.nodeid} leaked process-global state: " + "; ".join(leaks),
            pytrace=False,
        )
    return result


@pytest.fixture
def system4() -> SystemConfig:
    """The paper's default 4-GPU PCIe 6.0 evaluation system."""
    return repro.default_system(4, PCIE6)


@pytest.fixture
def system2() -> SystemConfig:
    """A 2-GPU system for pairwise subscription corner cases."""
    return repro.default_system(2, PCIE6)


@pytest.fixture
def system1() -> SystemConfig:
    """Single-GPU baseline system."""
    return repro.default_system(1, PCIE6)


@pytest.fixture
def gps_config() -> GPSConfig:
    """Default GPS structure parameters (Table 1)."""
    return GPSConfig()


@pytest.fixture
def gpu_config() -> GPUConfig:
    """Default GV100 parameters (Table 1)."""
    return GPUConfig()


@pytest.fixture
def um_config() -> UMConfig:
    """Default Unified Memory cost parameters."""
    return UMConfig()


@pytest.fixture
def jacobi_program():
    """A tiny 4-GPU Jacobi trace (setup + 2 iterations)."""
    return repro.get_workload("jacobi").build(4, scale=TINY, iterations=2)


@pytest.fixture
def pagerank_program():
    """A tiny 4-GPU Pagerank trace (setup + 2 iterations)."""
    return repro.get_workload("pagerank").build(4, scale=TINY, iterations=2)


def build(workload: str, num_gpus: int = 4, scale: float = TINY, iterations: int = 2):
    """Convenience builder used throughout the suite."""
    return repro.get_workload(workload).build(num_gpus, scale=scale, iterations=iterations)
