"""The one record of host work: every memo, cache and pool count of a process.

The simulator's hardware counters go into a fresh :class:`CounterRegistry`
per run and land in ``SimulationResult.counters``. The host's own work
(program builds, fingerprint passes, analyses, warm-L2 calls, memo
outcomes, result-cache outcomes, pool tasks) is counted here instead, in
one process-wide registry whose every name starts with ``host.``; no count
ever enters a result. ``docs/OBSERVABILITY.md`` lists each name and the
site that counts it.

Sites write with plain ``add`` calls; a hot site binds its
:class:`~repro.obs.registry.Counter` once at import, so no name is built per
call. A pool worker ships its :func:`delta` back beside its results and the
parent :func:`merge` s it, so a pooled grid and a serial one leave the same
record in the parent.
"""

from __future__ import annotations

from .registry import CounterRegistry, Number, SharedCounter

#: This process's host counts, every name under ``host.``. The service's
#: event loop and its runner threads add to it at once, so every add locks.
HOST = CounterRegistry(counter=SharedCounter)


def delta(since: "dict[str, Number]") -> "dict[str, Number]":
    """The counts added since ``since`` (an earlier ``HOST.as_dict()``); moved names only."""
    moved = {}
    for name, value in HOST.as_dict().items():
        change = value - since.get(name, 0)
        if change:
            moved[name] = change
    return moved


def merge(counts: "dict[str, Number]") -> None:
    """Add a :func:`delta` counted in another process to this one."""
    for name, value in counts.items():
        HOST.add(name, value)
