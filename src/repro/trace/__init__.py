"""Trace representation and synthetic expansion.

The paper drives NVAS with SASS-level traces captured by NVBit on real
hardware. This package is the substitute: workloads are described as
*trace programs* — phases of concurrent kernels, each kernel a bag of
:class:`AccessRange` descriptors — and :mod:`repro.trace.expand` lowers an
access range into a cacheline-granular numpy event stream with the spatial
and temporal structure the descriptor specifies. Hardware-structure models
(write queue, TLBs, L2) consume those streams directly.
"""

from .records import AccessRange, MemOp, PatternKind, PatternSpec, Scope
from .program import BufferSpec, KernelSpec, Phase, TraceProgram
from .expand import LineStream, expand_range, touched_lines, touched_pages

__all__ = [
    "AccessRange",
    "MemOp",
    "PatternKind",
    "PatternSpec",
    "Scope",
    "BufferSpec",
    "KernelSpec",
    "Phase",
    "TraceProgram",
    "LineStream",
    "expand_range",
    "touched_lines",
    "touched_pages",
]
