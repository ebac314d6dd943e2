"""Every paper artifact (each table and figure) as one entry of one table.

:data:`FIGURE_TABLE` holds each artifact as a :class:`Figure`: its paper
settings, the jobs they ask for and the reduce that turns the jobs' results
into the artifact's payload, a plain dict of rows/series. :func:`run_figures`
submits the union of the named figures' jobs as one ``run_many`` call, so a
job two figures share simulates once, then reduces each figure. Each public
driver (``fig8_end_to_end`` and the rest) is :func:`run_figures` over one
name; a keyword left ``None`` keeps the table's paper setting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import CACHE_BLOCK, GPSConfig, PAGE_2M, PAGE_4K, PAGE_64K, default_system
from ..core.gps_page_table import GPSPageTable
from ..core.gps_tlb import GPSTLB
from ..core.write_queue import RemoteWriteQueue
from ..interconnect.platforms import bandwidth_gap_summary
from ..paradigms.registry import FIGURE8_ORDER
from ..system.analysis import get_analysis
from ..workloads.registry import WORKLOADS, workload_names
from .report import geomean
from .runner import SimJob, run_many
from .runner.parallel import job_program

#: The four applications whose write streams coalesce (Figure 14 curves);
#: the other four sit at 0% by construction (sequential writes or atomics).
COALESCING_APPS = ("ct", "eqwp", "diffusion", "hit")
ZERO_HIT_APPS = ("jacobi", "pagerank", "sssp", "als")


def _no_jobs(settings: dict) -> dict:
    return {}


@dataclass(frozen=True)
class Figure:
    """One paper artifact: settings, the jobs they ask for, and a reduce.

    ``jobs(settings)`` returns ``{label: SimJob}``; ``reduce(settings,
    results)`` turns ``{label: SimulationResult}`` into the payload. An
    artifact that simulates nothing has no jobs and works in ``reduce``.
    """

    reduce: Callable[[dict, dict], dict]
    settings: dict = field(default_factory=dict)
    jobs: Callable[[dict], dict] = _no_jobs


def _grid(s: dict, cells) -> dict:
    """``{(workload, paradigm, gpus, link): SimJob}`` at the settings' scale and iterations."""
    return {cell: SimJob(*cell, s["scale"], s["iterations"]) for cell in cells}


def _speedup_cells(workloads, paradigms, num_gpus: int, links) -> list:
    """Each app's 1-GPU memcpy baseline per link, then each paradigm on ``num_gpus``."""
    cells = [(w, "memcpy", 1, link) for w in workloads for link in links]
    return cells + [(w, p, num_gpus, link) for w in workloads for link in links for p in paradigms]


def _speedup(results: dict, workload: str, paradigm: str, num_gpus: int, link) -> float:
    """Strong-scaling speedup: the 1-GPU memcpy time over the ``num_gpus`` time."""
    single = results[workload, "memcpy", 1, link]
    return single.total_time / results[workload, paradigm, num_gpus, link].total_time


def _speedup_matrix(s: dict, results: dict, paradigms, num_gpus: int, link) -> tuple:
    """``{app: {paradigm: speedup}}`` and each paradigm's geomean over the apps."""
    speedups = {
        w: {p: _speedup(results, w, p, num_gpus, link) for p in paradigms}
        for w in s["workloads"]
    }
    return speedups, {p: geomean([speedups[w][p] for w in s["workloads"]]) for p in paradigms}


# -- Figure 1 -------------------------------------------------------------------

#: The pre-GPS techniques available to Figure 1's hypothetical programmer.
_FIG1_PARADIGMS = ("um_hints", "rdl", "memcpy")


def _fig1_jobs(s: dict) -> dict:
    cells = _speedup_cells(s["workloads"], _FIG1_PARADIGMS, 4, ("pcie3", "pcie6"))
    # The upper bound ignores all transfer costs regardless of paradigm
    # (paper section 6).
    return _grid(s, cells + [(w, "infinite", 4, "pcie6") for w in s["workloads"]])


def _fig1_reduce(s: dict, results: dict) -> dict:
    workloads = list(s["workloads"])
    interconnects = ["pcie3", "pcie6", "infinite"]
    speedups: dict = {}
    best_paradigm: dict = {}
    for w in workloads:
        speedups[w], best_paradigm[w] = {}, {}
        for link in ("pcie3", "pcie6"):
            candidates = {p: _speedup(results, w, p, 4, link) for p in _FIG1_PARADIGMS}
            best_paradigm[w][link] = max(candidates, key=candidates.get)
            speedups[w][link] = candidates[best_paradigm[w][link]]
        speedups[w]["infinite"] = _speedup(results, w, "infinite", 4, "pcie6")
        best_paradigm[w]["infinite"] = "infinite"
    return {
        "figure": "fig1",
        "workloads": workloads,
        "interconnects": interconnects,
        "speedups": speedups,
        "best_paradigm": best_paradigm,
        "geomean": {k: geomean([speedups[w][k] for w in workloads]) for k in interconnects},
    }


def fig1_motivation(scale=None, iterations=None, workloads=None) -> dict:
    """Figure 1: 4-GPU strong scaling under today's best practice.

    The paper's motivation figure runs each application under the best
    technique available *before* GPS (per app, per interconnect — a
    well-tuned port picks whatever works) and sweeps the interconnect:
    PCIe 3.0 loses to one GPU, projected PCIe 6.0 reaches ~2x, and an
    infinite interconnect ~3x.
    """
    return run_figures(["fig1"], **locals())["fig1"]


# -- Figure 3 -------------------------------------------------------------------


def _fig3_reduce(s: dict, results: dict) -> dict:
    rows = bandwidth_gap_summary()
    return {
        "figure": "fig3",
        "rows": rows,
        "min_gap": min(r["gap"] for r in rows),
        "max_gap": max(r["gap"] for r in rows),
    }


def fig3_bandwidth_gap() -> dict:
    """Figure 3: local vs remote bandwidth across five GPU platforms."""
    return run_figures(["fig3"])["fig3"]


# -- Figures 8 and 12 -----------------------------------------------------------


def _fig8_jobs(s: dict) -> dict:
    return _grid(s, _speedup_cells(s["workloads"], s["paradigms"], s["num_gpus"], [s["link"]]))


def _fig8_reduce(s: dict, results: dict, figure: str = "fig8") -> dict:
    workloads, paradigms = list(s["workloads"]), s["paradigms"]
    speedups, mean = _speedup_matrix(s, results, paradigms, s["num_gpus"], s["link"])
    non_gps = [p for p in paradigms if p not in ("gps", "infinite")]
    next_best = {w: max(speedups[w][p] for p in non_gps) for w in workloads}
    return {
        "figure": figure,
        "workloads": workloads,
        "paradigms": list(paradigms),
        "speedups": speedups,
        "geomean": mean,
        "gps_vs_next_best": geomean([speedups[w]["gps"] / next_best[w] for w in workloads]),
        "opportunity_captured": mean["gps"] / mean["infinite"],
    }


def fig8_end_to_end(
    scale=None, iterations=None, workloads=None, num_gpus=None, link=None, paradigms=None
) -> dict:
    """Figure 8: 4-GPU speedup of every paradigm on every application."""
    return run_figures(["fig8"], **locals())["fig8"]


def fig12_sixteen_gpus(scale=None, iterations=None, workloads=None, paradigms=None) -> dict:
    """Figure 12: strong scaling on 16 GPUs with projected PCIe 6.0."""
    return run_figures(["fig12"], **locals())["fig12"]


# -- Figure 9 -------------------------------------------------------------------


def _fig9_jobs(s: dict) -> dict:
    return _grid(s, [(w, "gps", s["num_gpus"], "pcie6") for w in s["workloads"]])


def _fig9_reduce(s: dict, results: dict) -> dict:
    distribution: dict = {}
    for w in s["workloads"]:
        hist = results[w, "gps", s["num_gpus"], "pcie6"].subscriber_histogram
        total = sum(hist.values())
        distribution[w] = {
            count: 100.0 * pages / total if total else 0.0
            for count, pages in sorted(hist.items())
        }
    return {
        "figure": "fig9",
        "workloads": list(s["workloads"]),
        "num_gpus": s["num_gpus"],
        "percent_by_subscribers": distribution,
    }


def fig9_subscriber_distribution(scale=None, iterations=None, workloads=None, num_gpus=None):
    """Figure 9: subscriber-count distribution of shared GPS pages."""
    return run_figures(["fig9"], **locals())["fig9"]


# -- Figure 10 ------------------------------------------------------------------

_FIG10_PARADIGMS = ("um", "um_hints", "rdl", "gps")


def _fig10_jobs(s: dict) -> dict:
    paradigms = ("memcpy",) + _FIG10_PARADIGMS
    return _grid(s, [(w, p, s["num_gpus"], "pcie6") for w in s["workloads"] for p in paradigms])


def _fig10_reduce(s: dict, results: dict) -> dict:
    raw = {
        w: {
            p: results[w, p, s["num_gpus"], "pcie6"].interconnect_bytes
            for p in ("memcpy",) + _FIG10_PARADIGMS
        }
        for w in s["workloads"]
    }
    normalized = {
        w: {p: raw[w][p] / raw[w]["memcpy"] if raw[w]["memcpy"] else float("inf")
            for p in _FIG10_PARADIGMS}
        for w in s["workloads"]
    }
    return {
        "figure": "fig10",
        "workloads": list(s["workloads"]),
        "paradigms": list(_FIG10_PARADIGMS),
        "normalized_to_memcpy": normalized,
        "raw_bytes": raw,
    }


def fig10_interconnect_traffic(scale=None, iterations=None, workloads=None, num_gpus=None):
    """Figure 10: total interconnect bytes, normalised to memcpy."""
    return run_figures(["fig10"], **locals())["fig10"]


# -- Figure 11 ------------------------------------------------------------------

_FIG11_PARADIGMS = ("gps_nosub", "gps")


def _fig11_jobs(s: dict) -> dict:
    return _grid(s, _speedup_cells(s["workloads"], _FIG11_PARADIGMS, s["num_gpus"], ["pcie6"]))


def _fig11_reduce(s: dict, results: dict) -> dict:
    speedups, mean = _speedup_matrix(s, results, _FIG11_PARADIGMS, s["num_gpus"], "pcie6")
    return {
        "figure": "fig11",
        "workloads": list(s["workloads"]),
        "paradigms": list(_FIG11_PARADIGMS),
        "speedups": speedups,
        "geomean": mean,
    }


def fig11_subscription_benefit(scale=None, iterations=None, workloads=None, num_gpus=None):
    """Figure 11: GPS with vs without subscription tracking."""
    return run_figures(["fig11"], **locals())["fig11"]


# -- Figure 13 ------------------------------------------------------------------

_FIG13_LINKS = ("pcie3", "pcie4", "pcie5", "pcie6")


def _fig13_jobs(s: dict) -> dict:
    return _grid(s, _speedup_cells(s["workloads"], s["paradigms"], 4, _FIG13_LINKS))


def _fig13_reduce(s: dict, results: dict) -> dict:
    return {
        "figure": "fig13",
        "links": list(_FIG13_LINKS),
        "paradigms": list(s["paradigms"]),
        "geomean": {
            link: _speedup_matrix(s, results, s["paradigms"], 4, link)[1] for link in _FIG13_LINKS
        },
    }


def fig13_bandwidth_sensitivity(scale=None, iterations=None, workloads=None, paradigms=None):
    """Figure 13: geomean speedup of each paradigm vs PCIe generation."""
    return run_figures(["fig13"], **locals())["fig13"]


# -- Figure 14 and the GPS-TLB sweep: structure replays, no simulation ------------


def _store_streams_of(workload: str, s: dict):
    """``(kernels, analysis, config)``: one app's distinct kernels on GPU 0, from
    the runner's program memo at two iterations (each steady-state kernel once)."""
    config = default_system(s["num_gpus"])
    program = job_program(SimJob(workload, "gps", s["num_gpus"], "pcie6", s["scale"], 2))
    # Distinct steady-state kernels, one per GPU per phase shape.
    kernels = {k: None for k in program.iter_kernels() if k.gpu == 0}
    return kernels, get_analysis(program, config), config


def _fig14_reduce(s: dict, results: dict) -> dict:
    hit_rates: dict = {}
    for workload in s["workloads"]:
        kernels, analysis, config = _store_streams_of(workload, s)
        hit_rates[workload] = {}
        for size in s["queue_sizes"]:
            gps_cfg = dataclasses.replace(config.gps, write_queue_entries=size)
            queue = RemoteWriteQueue(gps_cfg)
            for kernel in kernels:
                for _, stream, atomic in analysis.store_streams(kernel):
                    queue.process_stream_batch(stream.lines, stream.bytes_per_txn, atomic=atomic)
                queue.flush_batch()  # grid-end implicit release
            hit_rates[workload][size] = queue.stats.hit_rate
    return {
        "figure": "fig14",
        "workloads": list(s["workloads"]),
        "queue_sizes": list(s["queue_sizes"]),
        "hit_rate": hit_rates,
    }


def fig14_write_queue_hit_rate(scale=None, queue_sizes=None, workloads=None, num_gpus=None):
    """Figure 14: remote write queue hit rate vs queue size.

    Drives the queue directly with each application's SM-coalesced store
    streams (the same streams the full simulation replays), flushing at
    phase boundaries — no end-to-end timing needed for this metric.
    """
    return run_figures(["fig14"], **locals())["fig14"]


def _gps_tlb_reduce(s: dict, results: dict) -> dict:
    num_gpus = s["num_gpus"]
    hit_rates: dict = {}
    for workload in s["workloads"]:
        kernels, analysis, config = _store_streams_of(workload, s)
        lines_per_page = config.page_size // CACHE_BLOCK
        # Capture the drained writes once. The store stream is issued by
        # many concurrent CTAs striding across the shard, so the drains
        # interleave several regions — modelled by slicing each stream and
        # weaving warp-sized chunks round-robin.
        queue = RemoteWriteQueue(config.gps)
        drained = []
        for kernel in kernels:
            for _, stream, atomic in analysis.store_streams(kernel):
                order = _cta_weave(len(stream))
                batch = queue.process_stream_batch(
                    stream.lines[order], stream.bytes_per_txn[order], atomic=atomic
                )
                drained.append(batch.lines)
            drained.append(queue.flush_batch().lines)
        vpns = np.concatenate(drained) // lines_per_page
        # Back-to-back writes to one page hit the MRU entry: only each page
        # run's head takes a real set-associative access.
        heads = vpns[np.r_[True, vpns[1:] != vpns[:-1]]].tolist() if vpns.size else []
        page_table = GPSPageTable(config.gps, num_gpus)
        pages = sorted(set(heads))
        for gpu in range(num_gpus):
            page_table.install_replicas(pages, gpu, pages)
        hit_rates[workload] = {}
        for size in s["tlb_sizes"]:
            gps_cfg = dataclasses.replace(
                config.gps,
                gps_tlb_entries=size,
                gps_tlb_assoc=min(size, config.gps.gps_tlb_assoc),
            )
            tlb = GPSTLB(gps_cfg, page_table)
            tlb.translate_batch(heads, vpns.shape[0])
            hit_rates[workload][size] = tlb.stats.hit_rate
    return {
        "figure": "sec7.4-gps-tlb",
        "workloads": list(s["workloads"]),
        "tlb_sizes": list(s["tlb_sizes"]),
        "hit_rate": hit_rates,
    }


def gps_tlb_sensitivity(scale=None, tlb_sizes=None, workloads=None, num_gpus=None) -> dict:
    """Section 7.4: GPS-TLB hit rate vs size (~100% at just 32 entries).

    Replays each application's drained write-queue output through a
    GPS-TLB of each size, over an all-to-all GPS page table — the same
    datapath as the full GPS unit, isolated.
    """
    return run_figures(["gps-tlb"], **locals())["gps-tlb"]


def _cta_weave(n: int, ways: int = 8, chunk: int = 32) -> np.ndarray:
    """Issue order of an ``n``-txn stream: ``ways`` slices round-robin in ``chunk`` txns.

    Approximates the issue order of a grid whose CTAs each own one
    contiguous slice of the shard (``np.array_split`` sizes) and make
    progress concurrently. A stream shorter than ``ways * chunk`` keeps its
    order. Index both of a stream's arrays with it, so each line keeps its
    payload.
    """
    index = np.arange(n)
    if n < ways * chunk:
        return index
    size, extra = divmod(n, ways)
    starts = np.arange(ways) * size + np.minimum(np.arange(ways), extra)
    piece = np.searchsorted(starts, index, side="right") - 1
    rounds = (index - starts[piece]) // chunk
    return np.argsort(rounds * ways + piece, kind="stable")


# -- Section 7.4: page-size sensitivity -------------------------------------------


def _page_size_jobs(s: dict) -> dict:
    jobs = {}
    for page_size in s["page_sizes"]:
        config = dataclasses.replace(
            default_system(s["num_gpus"]), gps=dataclasses.replace(GPSConfig(), page_size=page_size)
        )
        for w in s["workloads"]:
            jobs[w, page_size] = SimJob(
                w, "gps", s["num_gpus"], "pcie6", s["scale"], s["iterations"], config=config
            )
    return jobs


def _page_size_reduce(s: dict, results: dict) -> dict:
    times = {
        ps: sum(results[w, ps].total_time for w in s["workloads"]) for ps in s["page_sizes"]
    }
    return {
        "figure": "sec7.4-page-size",
        "workloads": list(s["workloads"]),
        "page_sizes": list(s["page_sizes"]),
        "total_time": times,
        "slowdown_vs_64k": {ps: times[ps] / times[PAGE_64K] for ps in s["page_sizes"]},
    }


def page_size_sensitivity(
    scale=None, iterations=None, workloads=None, num_gpus=None, page_sizes=None
) -> dict:
    """Section 7.4: GPS runtime at 4 KiB / 64 KiB / 2 MiB pages.

    The paper reports 4 KiB 42% slower (TLB pressure) and 2 MiB 15%
    slower (false sharing inflating interconnect traffic), making 64 KiB
    the sweet spot.
    """
    return run_figures(["page-size"], **locals())["page-size"]


# -- Extension: weak scaling (not a paper figure, so not in the table) ------------


def weak_scaling(
    workload: str = "jacobi",
    gpu_counts=(1, 2, 4, 8),
    scale_per_gpu: float = 0.25,
    iterations: int = 8,
    paradigms=("memcpy", "gps", "infinite"),
) -> dict:
    """Extension study: weak scaling (problem grows with the GPU count).

    The paper evaluates strong scaling only; weak scaling is the natural
    companion question — with per-GPU work held constant, a perfect system
    keeps iteration time flat, so *efficiency* is t(1 GPU) / t(N GPUs).
    GPS should stay near 1.0 (halo communication per GPU is constant)
    while bulk-synchronous transfers degrade (broadcast volume grows with
    N).
    """
    jobs = {
        (p, n): SimJob(workload, p, n, "pcie6", scale_per_gpu * n, iterations)
        for p in paradigms
        for n in gpu_counts
    }
    results = dict(zip(jobs, run_many(list(jobs.values()))))
    times = {p: {n: results[p, n].total_time for n in gpu_counts} for p in paradigms}
    efficiency = {
        p: {n: times[p][gpu_counts[0]] / times[p][n] for n in gpu_counts}
        for p in paradigms
    }
    return {
        "figure": "ext-weak-scaling",
        "workload": workload,
        "gpu_counts": list(gpu_counts),
        "paradigms": list(paradigms),
        "total_time": times,
        "efficiency": efficiency,
    }


# -- Tables ---------------------------------------------------------------------


def _table1_reduce(s: dict, results: dict) -> dict:
    system = default_system(4)
    gpu, gps = system.gpu, system.gps
    return {
        "table": "table1",
        "gpu": {
            "cache_block_bytes": gpu.cache_block,
            "global_memory_bytes": gpu.dram_bytes,
            "streaming_multiprocessors": gpu.num_sms,
            "cuda_cores_per_sm": gpu.cores_per_sm,
            "l2_cache_bytes": gpu.l2_bytes,
            "warp_size": gpu.warp_size,
            "max_threads_per_sm": gpu.max_threads_per_sm,
            "max_threads_per_cta": gpu.max_threads_per_cta,
        },
        "gps": {
            "remote_write_queue_entries": gps.write_queue_entries,
            "remote_write_queue_entry_bytes": gps.write_queue_entry_bytes,
            "tlb_assoc": gps.gps_tlb_assoc,
            "tlb_entries": gps.gps_tlb_entries,
            "virtual_address_bits": gps.virtual_address_bits,
            "physical_address_bits": gps.physical_address_bits,
        },
    }


def table1_simulation_settings() -> dict:
    """Table 1: simulation settings (GV100 + GPS structures)."""
    return run_figures(["table1"])["table1"]


def _table2_reduce(s: dict, results: dict) -> dict:
    rows = [
        {"name": wl.info.name, "description": wl.info.description,
         "comm_pattern": wl.info.comm_pattern}
        for wl in WORKLOADS.values()
    ]
    return {"table": "table2", "rows": rows}


def table2_applications() -> dict:
    """Table 2: the application suite and its communication patterns."""
    return run_figures(["table2"])["table2"]


# -- The table ------------------------------------------------------------------

_APPS = dict(scale=1.0, iterations=16, workloads=tuple(workload_names()))
_FIG8 = dict(_APPS, num_gpus=4, link="pcie6", paradigms=FIGURE8_ORDER)

#: Every paper artifact by its ``repro figure`` name (``repro.names.FIGURES``),
#: with the paper settings both the benchmark suite and ``repro figure`` run.
FIGURE_TABLE: "dict[str, Figure]" = {
    "fig1": Figure(_fig1_reduce, _APPS, _fig1_jobs),
    "fig3": Figure(_fig3_reduce),
    "fig8": Figure(_fig8_reduce, _FIG8, _fig8_jobs),
    "fig9": Figure(_fig9_reduce, dict(_APPS, iterations=2, num_gpus=4), _fig9_jobs),
    "fig10": Figure(_fig10_reduce, dict(_APPS, num_gpus=4), _fig10_jobs),
    "fig11": Figure(_fig11_reduce, dict(_APPS, num_gpus=4), _fig11_jobs),
    "fig12": Figure(
        lambda s, results: _fig8_reduce(s, results, figure="fig12"),
        dict(_FIG8, iterations=32, num_gpus=16),
        _fig8_jobs,
    ),
    "fig13": Figure(_fig13_reduce, dict(_APPS, paradigms=FIGURE8_ORDER), _fig13_jobs),
    "fig14": Figure(_fig14_reduce, dict(
        scale=1.0, num_gpus=4, workloads=COALESCING_APPS + ZERO_HIT_APPS,
        queue_sizes=(16, 32, 64, 128, 256, 512, 1024),
    )),
    "gps-tlb": Figure(_gps_tlb_reduce, dict(
        scale=1.0, num_gpus=4, workloads=_APPS["workloads"], tlb_sizes=(4, 8, 16, 32, 64)
    )),
    "page-size": Figure(
        _page_size_reduce,
        dict(_APPS, iterations=8, num_gpus=4, page_sizes=(PAGE_4K, PAGE_64K, PAGE_2M)),
        _page_size_jobs,
    ),
    "table1": Figure(_table1_reduce),
    "table2": Figure(_table2_reduce),
}

_SETTING_NAMES = frozenset(key for entry in FIGURE_TABLE.values() for key in entry.settings)


def run_figures(names, **overrides) -> "dict[str, dict]":
    """Regenerate the named figures as one grid; ``{name: payload}`` in ``names`` order.

    An override replaces that setting in every named figure that has it
    (``scale`` reaches all that take one; fig3 and the tables take none),
    and ``None`` keeps the table's value. The union of the figures' jobs is
    one :func:`run_many` call; each figure then reduces its own labels. A
    setting no figure has raises ``TypeError``.
    """
    unknown = sorted(set(overrides) - _SETTING_NAMES)
    if unknown:
        raise TypeError(f"no figure has the setting(s) {unknown}")
    settings = {}
    for name in names:
        base = FIGURE_TABLE[name].settings
        settings[name] = {**base, **{
            k: v for k, v in overrides.items() if k in base and v is not None
        }}
    jobs = {
        (name, label): job
        for name, s in settings.items()
        for label, job in FIGURE_TABLE[name].jobs(s).items()
    }
    results: "dict[str, dict]" = {name: {} for name in settings}
    for (name, label), result in zip(jobs, run_many(list(jobs.values())) if jobs else []):
        results[name][label] = result
    return {name: FIGURE_TABLE[name].reduce(s, results[name]) for name, s in settings.items()}
