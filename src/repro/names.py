"""The names the CLI offers, importable without the simulator.

The CLI parser takes its workload, paradigm and figure choices from here,
so ``repro submit --help`` and the other client verbs run without numpy.
The workload and paradigm names are the keys of the registries in
:mod:`repro.workloads.registry` and :mod:`repro.paradigms.registry`, which
import the simulator; a test pins them equal.
"""

#: The Table 2 evaluation suite, in table order (``workload_names()``).
WORKLOAD_NAMES = ("jacobi", "pagerank", "sssp", "als", "ct", "eqwp", "diffusion", "hit")

#: Every paradigm the executor registry builds (``PARADIGMS``' keys).
PARADIGM_NAMES = (
    "um", "um_hints", "rdl", "memcpy", "gps", "infinite", "gps_nosub", "gps_nocoalesce",
)

#: Paradigms ``repro verify``'s differential runs by default: the pair each
#: family law needs, plus the bounds.
DEFAULT_VERIFY_PARADIGMS = ("gps", "gps_nosub", "memcpy", "infinite")

#: ``repro figure`` names, in paper order: the keys of
#: ``repro.harness.experiments.FIGURE_TABLE`` (a test pins them equal).
FIGURES = (
    "fig1", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "gps-tlb", "page-size", "table1", "table2",
)
