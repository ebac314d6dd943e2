"""Benchmark-suite configuration.

Each benchmark regenerates one paper artifact at full scale and prints the
table the paper reports, so ``pytest benchmarks/ --benchmark-only -s``
reproduces the whole evaluation section. Results are deterministic; the
benchmark timer measures how long the simulation itself takes.

Each figure runs at its paper settings from
``repro.harness.experiments.FIGURE_TABLE`` (the ones ``repro figure`` uses).

Environment knobs (for constrained machines):

* ``REPRO_BENCH_SCALE`` — workload scale factor, for every figure that has
  one (default: the table's, 1.0);
* ``REPRO_BENCH_ITERATIONS`` — iterations per app, for every figure that
  has them (default: the table's; 16 for the ablation and extension
  studies, which are not figures);
* ``REPRO_CACHE_DIR`` — persistent simulation-result cache directory
  (default ``.repro-cache/``); repeat benchmark invocations reuse cached
  results across processes;
* ``REPRO_NO_CACHE`` — set to ``1`` to disable the persistent cache and
  re-simulate everything (use this when timing the simulator itself);
* ``REPRO_MAX_WORKERS`` — simulation worker processes for ``run_many``
  fan-out (default: all cores; ``1`` forces serial execution).
"""

from __future__ import annotations

import os

import pytest

from repro.harness.experiments import run_figures

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "16"))

#: The knobs that are set, as overrides of the figure table's settings.
FIGURE_OVERRIDES = {
    setting: cast(os.environ[knob])
    for setting, knob, cast in (
        ("scale", "REPRO_BENCH_SCALE", float),
        ("iterations", "REPRO_BENCH_ITERATIONS", int),
    )
    if os.environ.get(knob)
}


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Workload scale of the ablation and extension benchmarks."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_iterations() -> int:
    """Iteration count of the ablation and extension benchmarks."""
    return BENCH_ITERATIONS


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_figure(benchmark, name: str) -> dict:
    """Regenerate one table entry once under the benchmark timer."""
    return run_once(benchmark, lambda: run_figures([name], **FIGURE_OVERRIDES)[name])
