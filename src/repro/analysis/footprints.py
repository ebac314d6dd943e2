"""Page-granular symbolic footprints and program fingerprints.

The sanitizer reasons about two granularities at once: rules compare exact
byte intervals (no false sharing from page rounding), while every witness
also reports the *page* extent of the dispute, because pages are the unit
GPS subscribes, tracks, and publishes (paper §3.2, §4). A
:class:`Footprint` carries both views of one access site.

:func:`program_fingerprint` is the cache key of the analysis-result cache:
a SHA-256 over the canonical trace-program JSON, the page size, and the
analyzer revision, so any observable input to the rule registry changes the
key. Each program computes it once per page size.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..trace.io import program_to_dict
from ..trace.program import TraceProgram
from .intervals import page_round

if TYPE_CHECKING:
    from .dataflow import AccessSite

#: Bump when rule semantics change: it invalidates every cached analysis.
ANALYZER_REVISION = "2"


def page_count(start: int, end: int, page_size: int) -> int:
    """Number of pages the byte range ``[start, end)`` touches."""
    if end <= start:
        return 0
    lo, hi = page_round(start, end, page_size)
    return (hi - lo) // page_size


@dataclass(frozen=True, slots=True)
class Footprint:
    """Byte- and page-granular extent of one access in one buffer."""

    buffer: str
    byte_start: int
    byte_end: int
    page_start: int
    page_end: int
    page_size: int

    @classmethod
    def of_interval(
        cls, buffer: str, start: int, end: int, page_size: int
    ) -> "Footprint":
        """Footprint of an explicit byte interval."""
        lo, hi = page_round(start, end, page_size)
        return cls(buffer, start, end, lo, hi, page_size)

    @classmethod
    def of_site(cls, site: "AccessSite", page_size: int) -> "Footprint":
        """Footprint of a dataflow access site."""
        start, end = site.interval
        return cls.of_interval(site.access.buffer, start, end, page_size)

    @property
    def pages(self) -> int:
        """Number of pages spanned."""
        return (self.page_end - self.page_start) // self.page_size

    @property
    def bytes(self) -> int:
        """Exact byte length."""
        return self.byte_end - self.byte_start

    def byte_overlap(self, other: "Footprint") -> "tuple[int, int] | None":
        """Exact byte intersection with ``other``, or ``None``."""
        if self.buffer != other.buffer:
            return None
        lo = max(self.byte_start, other.byte_start)
        hi = min(self.byte_end, other.byte_end)
        return (lo, hi) if lo < hi else None

    def shares_pages(self, other: "Footprint") -> bool:
        """Whether the two footprints land on at least one common page."""
        if self.buffer != other.buffer:
            return False
        return (
            max(self.page_start, other.page_start)
            < min(self.page_end, other.page_end)
        )


def program_fingerprint(
    program: TraceProgram, page_size: int, revision: str = ANALYZER_REVISION
) -> str:
    """Stable hex digest identifying one analysis input.

    Built from the canonical serialized program (so metadata such as
    ``analysis_ignore`` is covered), the page granularity, and the analyzer
    revision. Two programs with equal fingerprints produce byte-identical
    diagnostics.

    The digest is computed once per (page size, revision) and kept on the
    program instance, like the cached hash of its kernels: an instance
    attribute, not a field, so ``eq``, ``repr``, serialisation and pickling
    never see it. ``metadata`` is the one part of a program callers edit in
    place, so a copy of it is kept beside each digest and any change to it
    recomputes.
    """
    memo: "dict[tuple[int, str], tuple[dict, str]]" = program.__dict__.setdefault(
        "_fingerprints", {}
    )
    cached = memo.get((page_size, revision))
    if cached is not None and cached[0] == program.metadata:
        return cached[1]
    payload = json.dumps(
        program_to_dict(program), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256()
    digest.update(revision.encode("ascii"))
    digest.update(b"|")
    digest.update(str(page_size).encode("ascii"))
    digest.update(b"|")
    digest.update(payload.encode("utf-8"))
    fingerprint = digest.hexdigest()
    memo[(page_size, revision)] = (copy.deepcopy(program.metadata), fingerprint)
    return fingerprint
