"""Evaluation harness: one table entry per paper table/figure.

:data:`repro.harness.experiments.FIGURE_TABLE` holds each artifact's paper
settings, jobs and reduce; :func:`run_figures` regenerates any of them as one
grid, each ``fig*``/``table*`` driver is that call for one artifact, and
:mod:`repro.harness.report` renders the returned rows as text tables.
"""

from .experiments import (
    fig1_motivation,
    fig3_bandwidth_gap,
    fig8_end_to_end,
    fig9_subscriber_distribution,
    fig10_interconnect_traffic,
    fig11_subscription_benefit,
    fig12_sixteen_gpus,
    fig13_bandwidth_sensitivity,
    fig14_write_queue_hit_rate,
    gps_tlb_sensitivity,
    page_size_sensitivity,
    run_figures,
    table1_simulation_settings,
    table2_applications,
)
from .report import format_table, geomean
from .runner import (
    SimJob,
    cache_stats,
    clear_disk_cache,
    clear_run_cache,
    disk_cache_info,
    run_many,
    run_simulation,
    run_speedup,
)

__all__ = [
    "fig1_motivation",
    "fig3_bandwidth_gap",
    "fig8_end_to_end",
    "fig9_subscriber_distribution",
    "fig10_interconnect_traffic",
    "fig11_subscription_benefit",
    "fig12_sixteen_gpus",
    "fig13_bandwidth_sensitivity",
    "fig14_write_queue_hit_rate",
    "gps_tlb_sensitivity",
    "page_size_sensitivity",
    "run_figures",
    "table1_simulation_settings",
    "table2_applications",
    "format_table",
    "geomean",
    "run_simulation",
    "run_speedup",
    "run_many",
    "SimJob",
    "cache_stats",
    "clear_run_cache",
    "clear_disk_cache",
    "disk_cache_info",
]
