"""Cache substrate: a set-associative cache model with pluggable replacement.

Used for the per-GPU L2 (6 MB on GV100). The L2 model matters for the
end-to-end results: the paper attributes EQWP's super-linear 4-GPU speedup to
the L2 hit rate rising from 55% to 68% as the per-GPU working set shrinks
(section 7.1) — an effect that only appears with a real capacity model.
:func:`warm_lru_hits` computes that warm hit count exactly in numpy; the
line-by-line :class:`Cache` walk stays as its reference.
"""

from .cache import Cache, CacheStats
from .replacement import FIFOPolicy, LRUPolicy, ReplacementPolicy
from .warm_lru import warm_lru_hits

__all__ = [
    "Cache",
    "CacheStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "warm_lru_hits",
]
