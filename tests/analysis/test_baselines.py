"""Baseline-drift guard: analyzer output over real inputs is pinned.

``baselines/`` holds one SARIF document per registered workload (built at
pinned parameters) and per committed fuzz-corpus program.  Any change to
rules, witnesses, ordering, or the SARIF emitter must regenerate them
(``PYTHONPATH=src python tests/analysis/baselines/regen.py``) so the drift
is a reviewable diff rather than a silent behavior change.  The CI
``lint`` job runs this same comparison.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_program, render_sarif
from repro.trace.io import load_program
from repro.workloads.registry import WORKLOADS

BASELINES = Path(__file__).parent / "baselines"
VERIFY_CORPUS = Path(__file__).parent.parent / "verify" / "corpus"

NUM_GPUS = 4
SCALE = 0.25
ITERATIONS = 2

WORKLOAD_NAMES = sorted(WORKLOADS)
CORPUS_NAMES = sorted(p.stem for p in VERIFY_CORPUS.glob("corpus-s*.json"))


def assert_matches_baseline(name, program):
    path = BASELINES / f"{name}.sarif"
    assert path.exists(), f"missing baseline {path.name} — run baselines/regen.py"
    got = render_sarif(program, analyze_program(program)) + "\n"
    assert got == path.read_text(), (
        f"{name}: analyzer output drifted from the committed SARIF baseline — "
        "regenerate baselines/ if the change is intentional"
    )


def test_every_baseline_has_a_source():
    expected = {f"workload-{n}" for n in WORKLOAD_NAMES}
    expected |= set(CORPUS_NAMES)
    assert {p.stem for p in BASELINES.glob("*.sarif")} == expected


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_baseline(name):
    program = WORKLOADS[name].build(NUM_GPUS, scale=SCALE, iterations=ITERATIONS)
    assert_matches_baseline(f"workload-{name}", program)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_baseline(name):
    assert_matches_baseline(name, load_program(VERIFY_CORPUS / f"{name}.json"))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_baselines_are_error_free(name):
    """The fuzz corpus is analyzer-clean: baselines pin only benign notes."""
    sarif = json.loads((BASELINES / f"{name}.sarif").read_text())
    (run,) = sarif["runs"]
    assert all(r["level"] != "error" for r in run["results"])
