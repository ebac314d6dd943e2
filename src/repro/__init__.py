"""GPS: a Global Publish-Subscribe model for multi-GPU memory management.

Trace-driven reproduction of Muthukrishnan, Lustig, Nellans, and Wenisch,
MICRO 2021. The public API:

* :func:`repro.simulate` — run one workload trace under one paradigm;
* :func:`repro.harness.run_speedup` — the paper's strong-scaling metric;
* :data:`repro.WORKLOADS` / :func:`repro.get_workload` — the Table 2 suite;
* :data:`repro.PARADIGMS` — UM, UM+hints, RDL, memcpy, GPS, infinite-BW;
* :class:`repro.GPSRuntime` — the ``cudaMallocGPS``-style driver API;
* :func:`repro.default_system` and the config dataclasses — system models;
* :mod:`repro.obs` — span tracing, hardware counters, and Perfetto export
  (``python -m repro trace <workload>`` from the CLI);
* :mod:`repro.verify` — invariant oracle, trace-program fuzzer, and the
  differential conformance harness (``python -m repro verify``).

Every name above resolves on first use: ``import repro`` loads only the
standard library, and the simulator (numpy included) loads on the first
access that needs it, such as ``repro.simulate``.

Quick start::

    import repro

    program = repro.get_workload("jacobi").build(num_gpus=4, scale=0.25)
    result = repro.simulate(program, "gps", repro.default_system(4))
    print(result.total_time, result.interconnect_bytes)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .analysis import Diagnostic, Severity, analyze_program, check_program
    from .config import (
        CACHE_BLOCK,
        GPSConfig,
        GPUConfig,
        LinkConfig,
        LINKS_BY_NAME,
        PAGE_2M,
        PAGE_4K,
        PAGE_64K,
        PCIE3,
        PCIE4,
        PCIE5,
        PCIE6,
        INFINITE_LINK,
        NVLINK2,
        NVLINK3,
        SystemConfig,
        UMConfig,
        default_system,
    )
    from .core.runtime import GPSRuntime, MemAdvise
    from .errors import AnalysisError, ReproError
    from .obs import (
        CounterRegistry,
        Span,
        chrome_trace,
        self_time_profile,
        write_chrome_trace,
    )
    from .paradigms.registry import FIGURE8_ORDER, LABELS, PARADIGMS, make_executor
    from .system.executor import simulate
    from .system.results import SimulationResult
    from .workloads.registry import WORKLOADS, get_workload, workload_names

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".analysis": ("Diagnostic", "Severity", "analyze_program", "check_program"),
    ".config": (
        "CACHE_BLOCK", "GPSConfig", "GPUConfig", "LinkConfig", "LINKS_BY_NAME",
        "PAGE_2M", "PAGE_4K", "PAGE_64K", "PCIE3", "PCIE4", "PCIE5", "PCIE6",
        "INFINITE_LINK", "NVLINK2", "NVLINK3", "SystemConfig", "UMConfig",
        "default_system",
    ),
    ".core.runtime": ("GPSRuntime", "MemAdvise"),
    ".errors": ("AnalysisError", "ReproError"),
    ".obs": ("CounterRegistry", "Span", "chrome_trace", "self_time_profile",
             "write_chrome_trace"),
    ".paradigms.registry": ("FIGURE8_ORDER", "LABELS", "PARADIGMS", "make_executor"),
    ".system.executor": ("simulate",),
    ".system.results": ("SimulationResult",),
    ".workloads.registry": ("WORKLOADS", "get_workload", "workload_names"),
})

__version__ = "1.3.0"

__all__ = [
    "CACHE_BLOCK",
    "GPSConfig",
    "GPUConfig",
    "LinkConfig",
    "LINKS_BY_NAME",
    "PAGE_2M",
    "PAGE_4K",
    "PAGE_64K",
    "PCIE3",
    "PCIE4",
    "PCIE5",
    "PCIE6",
    "INFINITE_LINK",
    "NVLINK2",
    "NVLINK3",
    "SystemConfig",
    "UMConfig",
    "default_system",
    "GPSRuntime",
    "MemAdvise",
    "ReproError",
    "FIGURE8_ORDER",
    "LABELS",
    "PARADIGMS",
    "make_executor",
    "simulate",
    "SimulationResult",
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "AnalysisError",
    "Diagnostic",
    "Severity",
    "analyze_program",
    "check_program",
    "CounterRegistry",
    "Span",
    "chrome_trace",
    "self_time_profile",
    "write_chrome_trace",
    "__version__",
]
