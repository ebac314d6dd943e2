"""Declarative SLOs evaluated live against the service's time-series.

An :class:`SLO` names a series, an objective (the fraction of *good*
samples), and an evaluation window. Two shapes:

* **latency** — ``threshold_s`` set: a sample is good when its value is at
  or under the threshold (e.g. "99% of jobs finish within 30 s over the
  last hour");
* **availability** — ``threshold_s`` unset, over a 0/1 series: a sample is
  good when non-zero (the service records ``jobs.ok`` as 1 per success, 0
  per failure, so this is the error budget).

Evaluation reports compliance, the remaining error budget, and the **burn
rate** — ``bad_fraction / (1 - objective)`` — the standard SRE signal: a
burn rate of 1.0 spends exactly the budget over the window; above 1.0 the
budget exhausts early. An SLO with no samples in its window reports
``ok: true`` with ``total: 0`` (no evidence of breach).

The default SLOs can be replaced wholesale via ``REPRO_SERVICE_SLO`` — a
JSON list of objects with the :class:`SLO` field names — and the result
surfaces on ``GET /healthz`` and :meth:`ServiceClient.slo`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..errors import ServiceError
from .timeseries import SeriesStore

#: Environment knob holding a JSON list of SLO definitions.
SLO_ENV = "REPRO_SERVICE_SLO"


@dataclass(frozen=True)
class SLO:
    """One service-level objective over a recorded series."""

    name: str
    series: str
    objective: float
    window_s: float = 3600.0
    threshold_s: "float | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"SLO {self.name}: objective must be in (0, 1)")
        if self.window_s <= 0:
            raise ValueError(f"SLO {self.name}: window_s must be positive")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "series": self.series,
            "objective": self.objective,
            "window_s": self.window_s,
            "threshold_s": self.threshold_s,
        }


#: Shipped defaults: submit→result latency and job availability.
DEFAULT_SLOS: "tuple[SLO, ...]" = (
    SLO(name="job-latency-30s", series="jobs.total_s", objective=0.99, threshold_s=30.0),
    SLO(name="job-availability", series="jobs.ok", objective=0.99),
)


def slos_from_env(env: "dict[str, str] | None" = None) -> "tuple[SLO, ...]":
    """The active SLO set: ``REPRO_SERVICE_SLO`` JSON, else the defaults.

    Raises :class:`~repro.errors.ServiceError` on malformed JSON or field
    errors — a service must not come up silently unprotected.
    """
    raw = (env if env is not None else os.environ).get(SLO_ENV, "")
    if not raw:
        return DEFAULT_SLOS
    try:
        payload = json.loads(raw)
        if not isinstance(payload, list):
            raise ValueError("expected a JSON list of SLO objects")
        return tuple(SLO(**item) for item in payload)
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"bad {SLO_ENV}: {exc}") from exc


def evaluate_slo(slo: SLO, series: SeriesStore, now: "float | None" = None) -> dict:
    """Evaluate one SLO against the store's trailing window."""
    if now is None:
        now = series._clock()
    samples = series.window(slo.series, start=now - slo.window_s, end=now)
    total = len(samples)
    if slo.threshold_s is not None:
        good = sum(1 for _, value in samples if value <= slo.threshold_s)
    else:
        good = sum(1 for _, value in samples if value)
    bad_fraction = 0.0 if total == 0 else (total - good) / total
    budget = 1.0 - slo.objective
    burn_rate = bad_fraction / budget
    compliance = 1.0 if total == 0 else good / total
    return {
        "name": slo.name,
        "series": slo.series,
        "objective": slo.objective,
        "window_s": slo.window_s,
        "threshold_s": slo.threshold_s,
        "total": total,
        "good": good,
        "compliance": compliance,
        "burn_rate": burn_rate,
        "error_budget_remaining": max(0.0, 1.0 - burn_rate),
        "ok": total == 0 or compliance >= slo.objective,
    }


def evaluate_slos(
    slos: "tuple[SLO, ...]", series: SeriesStore, now: "float | None" = None
) -> "list[dict]":
    """Evaluate every SLO (the ``/healthz`` ``slo`` payload)."""
    return [evaluate_slo(slo, series, now) for slo in slos]
