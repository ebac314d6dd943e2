"""The benchmark's workloads: what each round submits, in seeded order.

A *round* is one fixed unit of user-visible work run against cold state in
fresh processes: a whole job grid through one ``run_many`` call, or one pass
of the service request mix against a freshly booted server. The seed only
permutes order (grids) or draws the request sequence (service); the set of
distinct jobs, and so the work a round does, is the same for every seed.

Nothing here imports ``repro`` at module level, so the parent process can
plan a run without the simulator on its path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: Workload name -> runner: ``grid`` rounds call ``run_many`` directly,
#: ``service`` rounds drive a server process over HTTP.
WORKLOADS = {
    "fig08-cold": "grid",
    "fig08-pool": "grid",
    "gps-sweep": "grid",
    "service-mix": "service",
}

#: Workloads whose rounds compute in one process at a time.
SERIAL = ("fig08-cold", "gps-sweep")

#: Pool width of ``fig08-pool``: the benchmark box has two CPUs.
POOL_WORKERS = 2

#: Closed-loop clients of ``service-mix``, one connection each.
SERVICE_CLIENTS = 2

APPS = ("jacobi", "pagerank", "sssp", "als", "ct", "eqwp", "diffusion", "hit")
FIGURE8_PARADIGMS = ("um", "um_hints", "rdl", "memcpy", "gps", "infinite")
SWEEP_PARADIGMS = ("gps", "gps_nosub", "gps_nocoalesce")
SWEEP_WRITE_QUEUE = (32, 128, 512)
SWEEP_GPS_TLB = (8, 32)
SERVICE_PARADIGMS = ("gps", "memcpy", "um_hints", "rdl")
SERVICE_ITERATIONS = (2, 3)


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark size (``full`` or ``smoke``)."""

    apps: "tuple[str, ...]"
    fig08_scale: float
    fig08_iterations: int
    sweep_scale: float
    sweep_iterations: int
    service_scale: float
    service_requests: int


SIZES = {
    "full": Size(
        apps=APPS,
        fig08_scale=0.15,
        fig08_iterations=2,
        sweep_scale=0.05,
        sweep_iterations=2,
        service_scale=0.05,
        service_requests=200,
    ),
    # Sanity only: never compared with full-size numbers.
    "smoke": Size(
        apps=("jacobi", "hit"),
        fig08_scale=0.1,
        fig08_iterations=2,
        sweep_scale=0.1,
        sweep_iterations=2,
        service_scale=0.1,
        service_requests=40,
    ),
}


def rng_for(seed: int, round_index: int) -> random.Random:
    """The random stream of one round of one seeded run."""
    return random.Random(f"{seed}/{round_index}")


def grid_jobs(workload: str, size: Size) -> "list[tuple[str, object]]":
    """``(label, SimJob)`` pairs of a grid workload, in canonical order."""
    from repro.harness.runner import SimJob

    if workload in ("fig08-cold", "fig08-pool"):
        scale, iterations = size.fig08_scale, size.fig08_iterations
        jobs = [
            (f"{app}/memcpy/g1", SimJob(app, "memcpy", 1, "pcie6", scale, iterations))
            for app in size.apps
        ]
        jobs += [
            (f"{app}/{paradigm}/g4", SimJob(app, paradigm, 4, "pcie6", scale, iterations))
            for app in size.apps
            for paradigm in FIGURE8_PARADIGMS
        ]
        return jobs
    if workload == "gps-sweep":
        import dataclasses

        from repro.config import default_system

        base = default_system(4)
        jobs = []
        for app in size.apps:
            for paradigm in SWEEP_PARADIGMS:
                for entries in SWEEP_WRITE_QUEUE:
                    for tlb in SWEEP_GPS_TLB:
                        gps = dataclasses.replace(
                            base.gps, write_queue_entries=entries, gps_tlb_entries=tlb
                        )
                        config = dataclasses.replace(base, gps=gps)
                        job = SimJob(
                            app, paradigm, 4, "pcie6", size.sweep_scale,
                            size.sweep_iterations, config,
                        )
                        jobs.append((f"{app}/{paradigm}/wq{entries}/tlb{tlb}", job))
        return jobs
    raise ValueError(f"{workload!r} is not a grid workload")


def service_pool(size: Size) -> "list[dict]":
    """The distinct ``POST /jobs`` bodies the service mix draws from."""
    return [
        {
            "workload": app,
            "paradigm": paradigm,
            "gpus": 4,
            "scale": size.service_scale,
            "iterations": iterations,
        }
        for app in size.apps
        for paradigm in SERVICE_PARADIGMS
        for iterations in SERVICE_ITERATIONS
    ]


def preseeded(pool: "list[dict]") -> "list[dict]":
    """The third of the pool whose results are on disk before a pass starts.

    Fixed, not seeded, so every seed leaves the same jobs to simulate.
    """
    return pool[::3]


def request_sequence(pool: "list[dict]", count: int, rng: random.Random) -> "list[dict]":
    """``count`` requests covering every pool job at least once, seeded.

    Every job appears, so each pass simulates the same jobs; the remaining
    requests are repeats drawn uniformly, then the whole list is shuffled.
    """
    if count < len(pool):
        raise ValueError(f"{count} requests cannot cover a pool of {len(pool)} jobs")
    sequence = list(pool) + rng.choices(pool, k=count - len(pool))
    rng.shuffle(sequence)
    return sequence


def body_label(body: dict) -> str:
    """Digest label of one service job body."""
    return f"{body['workload']}/{body['paradigm']}/i{body['iterations']}"


def digest(pairs) -> str:
    """SHA-256 over sorted ``(label, canonical payload)`` pairs.

    Sorting makes the digest independent of the order jobs were submitted
    or completed in. Labels name the job without the model-version string
    that job keys carry, so a version bump with byte-identical results
    keeps its digest.
    """
    hasher = hashlib.sha256()
    for label, payload in sorted(pairs):
        hasher.update(label.encode("utf-8"))
        hasher.update(b"\n")
        hasher.update(payload.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
