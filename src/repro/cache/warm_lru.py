"""Exact warm-pass hit count of a set-associative LRU cache, in numpy.

:func:`warm_lru_hits` answers the question the per-GPU L2 model asks of every
distinct kernel: run the kernel's read stream twice through an empty LRU
cache, and how many accesses of the second pass hit? :class:`Cache` answers
it by walking both passes line by line; this kernel gets the same integer
without walking the first pass at all:

1. **Sets that fit.** A set whose lines number at most ``assoc`` never
   evicts, so every second-pass access to it hits.
2. **Cold pass in closed form.** After the first pass, every other set holds
   exactly its ``assoc`` most recently used distinct lines.
3. **Warm pass in lockstep.** The second pass is simulated for all remaining
   sets at once, one per-set rank per numpy step: a hit is a tag match, a
   miss evicts the way with the oldest stamp. Per-set sequences are stored
   rank-major with sets sorted longest first, so the sets still active at
   any rank are a prefix. Once few sets remain, each finishes with the
   scalar LRU walk from its current state, so a stream confined to one set
   costs no more than one scalar pass.

Working memory is O(stream length) plus one ``(assoc, sets)`` tag and code
array; no ``sets x longest-sequence`` matrix is ever built. Positions, line
ids and set indices take the narrowest integer type their bound allows
(int32, int32 and int16 for an L2-sized read stream).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Active-set count at or below which the remaining sets finish with the
#: scalar walk: a numpy step has a fixed cost of several array calls, which
#: a step over so few sets does not repay.
SCALAR_TAIL_SETS = 32


def warm_lru_hits(lines, num_sets: int, assoc: int) -> int:
    """Second-pass hits of ``lines`` run twice through an empty LRU cache.

    The cache has ``num_sets`` sets of ``assoc`` ways and indexes line ``x``
    into set ``x % num_sets``, as :class:`repro.cache.Cache` does; the result
    equals the ``hits`` of the second of two ``Cache.simulate_stream`` calls.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    if n == 0:
        return 0
    hot_pos = _spilling_accesses(lines, num_sets, assoc)
    if hot_pos.shape[0] == 0:
        return n
    hot_pos = hot_pos.astype(_index_dtype(n))
    hot_lines = lines[hot_pos]
    hot_set = (hot_lines % num_sets).astype(_index_dtype(num_sets))
    ids, id_set, last_pos = _dense_ids(hot_lines, hot_pos, hot_set)
    del hot_lines
    slot_of_set, lengths = _slots(hot_set, num_sets)
    seq = ids[np.argsort(slot_of_set[hot_set], kind="stable")]  # set-major, stream order
    del ids, hot_set
    tags, codes = _cold_state(slot_of_set[id_set], last_pos, n, assoc, lengths.shape[0])
    return n - hot_pos.shape[0] + _warm_pass(seq, lengths, tags, codes)


def _index_dtype(bound: int) -> type:
    """The narrowest signed integer type that holds every index below ``bound``.

    Set indices (3,072 L2 sets) fit int16, whose stable sort numpy runs as
    a radix sort; positions and line ids fit int32 below 2**31 accesses.
    """
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _spilling_accesses(lines: np.ndarray, num_sets: int, assoc: int) -> np.ndarray:
    """Positions of the accesses to sets holding more than ``assoc`` lines.

    Every other set never evicts, so all its second-pass accesses hit.
    """
    ordered = np.sort(lines)
    uniq = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    del ordered
    spills = np.bincount(uniq % num_sets, minlength=num_sets) > assoc
    if not spills.any():
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(spills[lines % num_sets])


def _dense_ids(lines: np.ndarray, pos: np.ndarray, access_set: np.ndarray) -> tuple:
    """``(id of each access, set of each id, last position of each id)``.

    Ids take the type of ``pos``: there are no more lines than accesses.
    """
    by_line = np.argsort(lines)
    ordered = lines[by_line]
    heads = np.empty(lines.shape[0], dtype=bool)
    heads[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    del ordered
    ids = np.empty(lines.shape[0], dtype=pos.dtype)
    ids[by_line] = np.cumsum(heads, dtype=pos.dtype) - 1
    starts = np.flatnonzero(heads)
    return ids, access_set[by_line[starts]], np.maximum.reduceat(pos[by_line], starts)


def _slots(access_set: np.ndarray, num_sets: int) -> tuple:
    """``(slot of each set, accesses per slot)``, slots ordered longest first.

    Only sets with accesses get a counted slot; the rest sort to the end.
    Slots take the type of ``access_set``.
    """
    per_set = np.bincount(access_set, minlength=num_sets)
    set_of_slot = np.argsort(-per_set, kind="stable")
    slot_of_set = np.empty(num_sets, dtype=access_set.dtype)
    slot_of_set[set_of_slot] = np.arange(num_sets, dtype=access_set.dtype)
    lengths = per_set[set_of_slot]
    return slot_of_set, lengths[lengths > 0]


def _cold_state(id_slot: np.ndarray, last_pos: np.ndarray, n: int, assoc: int,
                slots: int) -> tuple:
    """``(tags, codes)`` after the cold pass: each set's ``assoc`` newest lines.

    Ways are rows and slots are columns, so per-set reductions run across
    rows. A way's code is ``stamp * assoc + way``: the column minimum names
    the least recently used way without an argmin. Cold-pass stamps are
    negative positions, older than any warm-pass rank.
    """
    newest = np.argsort(id_slot.astype(np.int64) * n + (n - 1 - last_pos))
    newest_slot = id_slot[newest]
    way = np.arange(newest.shape[0]) - np.searchsorted(newest_slot, newest_slot)
    resident = way < assoc
    slot, way, line = newest_slot[resident], way[resident], newest[resident]
    tags = np.empty((assoc, slots), dtype=np.int64)
    codes = np.empty((assoc, slots), dtype=np.int64)
    tags[way, slot] = line
    codes[way, slot] = (last_pos[line].astype(np.int64) - n) * assoc + way
    return tags, codes


def _warm_pass(seq: np.ndarray, lengths: np.ndarray, tags: np.ndarray,
               codes: np.ndarray) -> int:
    """Warm-pass hits of the set-major sequence ``seq``, all sets in lockstep."""
    assoc, slots = tags.shape
    index = seq.dtype  # every rank, offset and slot below is under len(seq)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(index)
    # Rank-major copy: step t reads flat[offsets[t]:offsets[t + 1]], one
    # access for each of the active[t] longest sets.
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    offsets = np.concatenate(([0], np.cumsum(active))).astype(index)
    seq_slot = np.repeat(np.arange(slots, dtype=index), lengths)
    flat = np.empty_like(seq)
    flat[offsets[np.arange(seq.shape[0], dtype=index) - starts[seq_slot]] + seq_slot] = seq
    del seq_slot

    ways = np.arange(assoc)[:, None]
    hits = 0
    for t in range(lengths[0]):
        k = int(active[t])
        if k <= SCALAR_TAIL_SETS:
            for j in range(k):
                rest = seq[starts[j] + t : starts[j] + lengths[j]]
                hits += _scalar_tail(tags[:, j], codes[:, j], rest)
            break
        x = flat[offsets[t] : offsets[t + 1]]
        live_tags = tags[:, :k]
        live_codes = codes[:, :k]
        match = live_tags == x
        np.copyto(live_codes, t * assoc + ways, where=match)
        miss = np.flatnonzero(~np.logical_or.reduce(match, axis=0))
        victim = np.minimum.reduce(live_codes, axis=0)[miss] % assoc
        live_tags[victim, miss] = x[miss]
        live_codes[victim, miss] = t * assoc + victim
        hits += k - miss.shape[0]
    return hits


def _scalar_tail(tags: np.ndarray, codes: np.ndarray, rest: np.ndarray) -> int:
    """Hits of one full set's remaining accesses, walked from its current state.

    The :class:`LRUPolicy` walk inlined: on a full set every miss evicts.
    """
    lru = OrderedDict.fromkeys(tags[np.argsort(codes)].tolist())
    hits = 0
    for line in rest.tolist():
        if line in lru:
            lru.move_to_end(line)
            hits += 1
        else:
            lru.popitem(last=False)
            lru[line] = None
    return hits
