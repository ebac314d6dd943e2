"""Top-level simulation entry points."""

from __future__ import annotations

from ..config import SystemConfig
from ..system.results import SimulationResult
from ..trace.program import TraceProgram


def simulate(program: TraceProgram, paradigm: str, config: SystemConfig) -> SimulationResult:
    """Run one trace program under one paradigm on one system."""
    from ..paradigms.registry import make_executor  # local import: avoids a cycle

    executor = make_executor(paradigm, program, config)
    return executor.run()

