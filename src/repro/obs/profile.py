"""Top-N self-time profiles over a span trace.

Engine spans do not nest (each is one exclusive resource occupancy), so
self time equals duration; the interesting aggregation is
*by operation*: all instances of one kernel or one transfer stream, across
GPUs, ports, and iterations, folded into one row. Instance suffixes
(``@gpu3``, ``:eg0->1``) are stripped so the row key is the logical
operation, the thing a perf investigation actually ranks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from ..units import fmt_time
from .span import Span

#: Instance suffixes folded away by :func:`normalise_span_name`.
_INSTANCE_SUFFIXES = re.compile(r"(@gpu\d+|:(?:eg|in)\d+->\d+|\d*-(?:eg|in)\d+)$")


def normalise_span_name(name: str) -> str:
    """Fold one span name to its logical operation.

    ``iter3/jacobi@gpu2`` -> ``iter3/jacobi``; ``iter3/gps-pub:eg0->1`` ->
    ``iter3/gps-pub``; names without an instance suffix pass through.
    """
    return _INSTANCE_SUFFIXES.sub("", name)


@dataclass(frozen=True)
class ProfileRow:
    """One aggregated operation in a self-time profile."""

    name: str
    category: str
    count: int
    total_time: float
    #: Fraction of all span time this operation accounts for.
    share: float


def self_time_profile(spans: Iterable[Span], top: "int | None" = None) -> "list[ProfileRow]":
    """Aggregate spans by (normalised name, category), ranked by total time.

    ``top`` truncates the ranking; ties break deterministically by name.
    An open span (``end`` is ``None``) counts with zero time.
    """
    totals: dict[tuple, list] = {}
    for span in spans:
        key = (normalise_span_name(span.name), span.category)
        row = totals.setdefault(key, [0, 0.0])
        row[0] += 1
        row[1] += span.duration or 0.0
    grand_total = sum(row[1] for row in totals.values())
    ranked = sorted(totals.items(), key=lambda item: (-item[1][1], item[0]))
    if top is not None:
        ranked = ranked[:top]
    return [
        ProfileRow(
            name=name,
            category=category,
            count=count,
            total_time=total,
            share=(total / grand_total) if grand_total > 0 else 0.0,
        )
        for (name, category), (count, total) in ranked
    ]


def format_profile(rows: "list[ProfileRow]", title: str = "self-time profile") -> str:
    """Monospace table for the CLI: rank, time, share, count, operation."""
    if not rows:
        return f"{title}: (no spans recorded)"
    lines = [title, f"{'#':>3}  {'total':>10}  {'share':>6}  {'count':>6}  operation [category]"]
    for rank, row in enumerate(rows, start=1):
        lines.append(
            f"{rank:>3}  {fmt_time(row.total_time):>10}  {100 * row.share:>5.1f}%  "
            f"{row.count:>6}  {row.name} [{row.category}]"
        )
    return "\n".join(lines)
