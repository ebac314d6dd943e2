"""System assembly: program analysis, paradigm execution, results.

The entry point is :func:`repro.system.executor.simulate`, which runs one
trace program under one memory-management paradigm on one system
configuration and returns a :class:`repro.system.results.SimulationResult`.
"""

from .analysis import KernelFootprint, ProgramAnalysis
from .executor import simulate
from .results import SimulationResult

__all__ = [
    "KernelFootprint",
    "ProgramAnalysis",
    "simulate",
    "SimulationResult",
]
