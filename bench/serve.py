"""Service launcher for ``service-mix`` rounds: ``python -m bench.serve``.

Hosts a :class:`repro.service.SimulationService` with default settings on
an ephemeral localhost port, prints ``port <n>`` once bound, and serves
until a client posts ``/shutdown``. On the way out it writes the process's
cache counters (and, when traced, its layer spans) to ``--stats``.
"""

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

from .tracer import Recorder, install


async def _serve(settings, cpus: "set[int]") -> None:
    from repro.service import SimulationService

    service = SimulationService(settings)
    _, port = await service.start()
    # Booted on the client's CPU; serve on all of them.
    os.sched_setaffinity(0, cpus)
    print(f"port {port}", flush=True)
    await service.serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs to serve on")
    args = parser.parse_args(argv)

    from repro.analysis.cache import cache_stats as analysis_cache_stats
    from repro.harness.runner import cache_stats
    from repro.service import ServiceSettings

    recorder = None
    if args.trace:
        recorder = Recorder()
        install(recorder)
        recorder.active = True
    cpus = {int(cpu) for cpu in args.cpus.split(",")}
    asyncio.run(_serve(ServiceSettings.from_env(port=0), cpus))
    stats = {
        "memo": cache_stats().as_dict(),
        "analysis_cache": analysis_cache_stats().to_dict(),
    }
    if recorder is not None:
        recorder.active = False
        stats["spans"] = [span.to_list() for span in recorder.spans]
    Path(args.stats).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
