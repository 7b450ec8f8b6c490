"""Content-hash memoisation for the set-algebra hot path.

The same trick as the persistent ``BoundStore``, applied in-process: results
of pure, deterministic queries (emptiness, cardinality, the subspace-lattice
closure) are cached under a key derived from the *content* of their inputs,
so structurally-equal sets reached through different derivation paths share
one computation.  Only queries that repeat within a derivation are memoised:
projection is not, as neither a cold suite run nor a fuzz campaign asks the
same one twice.

Discipline for memo keys (see DESIGN.md "Set-algebra engine"):

* keys must capture **everything** the result depends on — for
  ``basic_set_is_empty`` that is the set fingerprint *and* the canonical
  keys of the context constraints;
* cached values must be immutable (tuples, frozen objects, ``bool``) so a
  shared result can never be mutated by one caller under another;
* never cache a result that depends on the wall clock or the host: only
  pure functions of the key are memoised (``subspace_closure``'s budget is
  an element count, part of its key, so its blow-ups are cached too).

Every cache is process-wide and lock-guarded, keeps hit/miss counters, and
registers itself with :mod:`repro.perf` so ``python -m repro profile``
reports hit rates.  Keys are content hashes, so a cold run (after
:func:`clear_all`) and a warm run compute identical results.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

from .. import perf

_T = TypeVar("_T")

class MemoCache:
    """A lock-guarded dict cache with hit/miss counters and a size cap.

    On overflow the cache is simply cleared: the workloads here are
    derivation-shaped (many repeats within one derivation, little value in
    LRU bookkeeping), so a crude epoch flush keeps the fast path to a single
    dict lookup.
    """

    __slots__ = ("name", "maxsize", "_data", "_lock", "hits", "misses")

    def __init__(self, name: str, maxsize: int = 65536):
        self.name = name
        self.maxsize = maxsize
        self._data: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        perf.register_cache(name, self)

    def __len__(self) -> int:
        return len(self._data)

    def get_or_compute(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        sentinel = _MISSING
        with self._lock:
            value = self._data.get(key, sentinel)
            if value is not sentinel:
                self.hits += 1
                return value
            self.misses += 1
        value = compute()
        with self._lock:
            if len(self._data) >= self.maxsize:
                self._data.clear()
            self._data[key] = value
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()

# -- shared caches for the set layer ----------------------------------------

#: ``basic_set_is_empty`` results: (set fingerprint, context keys) -> bool
EMPTINESS_CACHE = MemoCache("sets.is_empty")

#: ``is_rationally_empty`` results: (constraint keys, variables) -> bool
RATIONAL_EMPTINESS_CACHE = MemoCache("sets.rational_empty")

#: ``card_basic`` closed forms: set fingerprint -> sympy.Expr
CARD_CACHE = MemoCache("counting.card_basic")


def clear_all() -> None:
    """Drop every registered set/linalg cache (tests and CLI)."""
    for cache in _ALL_CACHES:
        cache.clear()
        cache.reset_counters()


_ALL_CACHES: list[MemoCache] = [
    EMPTINESS_CACHE,
    RATIONAL_EMPTINESS_CACHE,
    CARD_CACHE,
]


def register(cache: MemoCache) -> MemoCache:
    """Track an externally created cache so :func:`clear_all` reaches it."""
    _ALL_CACHES.append(cache)
    return cache
