"""Regenerate the committed SARIF baselines.

One baseline per registered workload (built at the pinned parameters
below) and one per committed fuzz-corpus program.  The drift test and the
CI ``lint`` job re-run the analyzer and demand byte-identical
SARIF, so any diagnostic added, dropped, reworded, or reordered shows up
as a reviewable diff in this directory.

Run from the repo root after intentional analyzer changes:

    PYTHONPATH=src python tests/analysis/baselines/regen.py
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_program, render_sarif
from repro.trace.io import load_program
from repro.workloads.registry import WORKLOADS

HERE = Path(__file__).parent
VERIFY_CORPUS = HERE.parent.parent / "verify" / "corpus"

#: Pinned build parameters — change these and every baseline moves.
NUM_GPUS = 4
SCALE = 0.25
ITERATIONS = 2


def baseline_programs():
    for name in sorted(WORKLOADS):
        yield f"workload-{name}", WORKLOADS[name].build(
            NUM_GPUS, scale=SCALE, iterations=ITERATIONS
        )
    for path in sorted(VERIFY_CORPUS.glob("corpus-s*.json")):
        yield path.stem, load_program(path)


def main() -> None:
    for stale in HERE.glob("*.sarif"):
        stale.unlink()
    for name, program in baseline_programs():
        sarif = render_sarif(program, analyze_program(program))
        (HERE / f"{name}.sarif").write_text(sarif + "\n")
        print(name)


if __name__ == "__main__":
    main()
