"""Canonical simulation-job fingerprints.

The historical bug this module exists to prevent: the old runner's
``_config_key`` fingerprinted only 7 of ~25 :class:`SystemConfig` fields, so
two configs differing in, say, ``gps.high_watermark`` or ``um.fault_latency``
collided and returned each other's cached results. Keys here are derived from
the *complete* config via :func:`repro.config.config_fingerprint`
(``dataclasses.asdict`` over every nested field), scoped by workload,
paradigm, scale, iterations, and a model-version string so cache entries
invalidate whenever the simulator itself changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from ... import __version__
from ...config import (
    LINKS_BY_NAME,
    LinkConfig,
    SystemConfig,
    config_fingerprint,
    default_system,
)
from ...workloads.registry import resolve_workload_name

#: Versions every cache key. Bump ``repro.__version__`` (or this suffix) when
#: the simulation model changes behaviour: old persistent-cache entries then
#: miss instead of serving results from a different simulator.
MODEL_FINGERPRINT = f"repro-model/{__version__}"


def resolve_link(link: "str | LinkConfig") -> LinkConfig:
    """Accept either a link name from ``LINKS_BY_NAME`` or a LinkConfig."""
    if isinstance(link, LinkConfig):
        return link
    return LINKS_BY_NAME[link]


def job_key(
    workload: str,
    paradigm: str,
    scale: float,
    iterations: int,
    config: SystemConfig,
) -> str:
    """Cache key for one simulation: complete config + job + model version."""
    fingerprint = config_fingerprint(config)
    payload = json.dumps(
        {
            "model": MODEL_FINGERPRINT,
            "workload": workload,
            "paradigm": paradigm,
            "scale": scale,
            "iterations": iterations,
            "config": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SimJob:
    """One simulation request, as accepted by ``run_simulation``/``run_many``.

    ``link`` may be a name or a :class:`LinkConfig`; when an explicit
    ``config`` is given, its ``num_gpus`` and ``link`` fields are overridden
    by the job's own (mirroring ``run_simulation``'s long-standing calling
    convention).
    """

    workload: str
    paradigm: str
    num_gpus: int
    link: "str | LinkConfig" = "pcie6"
    scale: float = 1.0
    iterations: int = 16
    config: "SystemConfig | None" = None

    def resolved_config(self) -> SystemConfig:
        """The full SystemConfig this job simulates under."""
        link = resolve_link(self.link)
        if self.config is None:
            return default_system(self.num_gpus, link)
        return dataclasses.replace(self.config, num_gpus=self.num_gpus, link=link)

    def key(self) -> str:
        """Canonical cache key (memoised on the instance)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = job_key(
                self.workload,
                self.paradigm,
                self.scale,
                self.iterations,
                self.resolved_config(),
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def program_key(self) -> tuple:
        """What this job's trace program is built from.

        Builds are deterministic in (workload, GPUs, scale, iterations), so
        jobs with equal program keys share one program: the runner builds
        it once and its pool runs them in one task.
        """
        return (resolve_workload_name(self.workload), self.num_gpus, self.scale, self.iterations)

    def meta(self) -> dict:
        """Human-readable description stored alongside cached results."""
        config = self.resolved_config()
        return {
            "workload": self.workload,
            "paradigm": self.paradigm,
            "num_gpus": self.num_gpus,
            "link": config.link.name,
            "scale": self.scale,
            "iterations": self.iterations,
        }
