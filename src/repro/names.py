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

#: ``repro figure`` name -> (driver function in :mod:`repro.harness.experiments`,
#: whether it accepts scale/iterations).
FIGURES = {
    "fig1": ("fig1_motivation", True),
    "fig3": ("fig3_bandwidth_gap", False),
    "fig8": ("fig8_end_to_end", True),
    "fig9": ("fig9_subscriber_distribution", True),
    "fig10": ("fig10_interconnect_traffic", True),
    "fig11": ("fig11_subscription_benefit", True),
    "fig12": ("fig12_sixteen_gpus", True),
    "fig13": ("fig13_bandwidth_sensitivity", True),
    "fig14": ("fig14_write_queue_hit_rate", False),
    "gps-tlb": ("gps_tlb_sensitivity", False),
    "page-size": ("page_size_sensitivity", True),
    "table1": ("table1_simulation_settings", False),
    "table2": ("table2_applications", False),
}
