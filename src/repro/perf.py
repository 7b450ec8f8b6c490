"""Lightweight subsystem profiling: wall-time attribution and memo counters.

Every bound the system derives bottoms out in a handful of computational
subsystems — the polyhedral set algebra (:mod:`repro.sets`), symbolic
counting, Fourier-Motzkin elimination, relation closure (:mod:`repro.rel`),
exact linear algebra (:mod:`repro.linalg`) and pebble-game simulation
(:mod:`repro.pebble`).  This module attributes wall-time to those subsystems
with near-zero overhead so ``python -m repro profile`` can answer "where
does a cold derivation spend its time?" before anyone reaches for an
optimisation.

Attribution model
-----------------

Hot entry points are wrapped with :func:`timed`.  Each subsystem accumulates

* ``calls`` — number of *top-level* entries (re-entering a subsystem that is
  already on the current thread's stack is not counted or timed again, so
  ``card`` calling ``card_basic`` is one counting call);
* ``inclusive`` — wall-time between entry and exit, children included;
* ``exclusive`` — inclusive time minus the time spent in *other* timed
  subsystems below it (``counting`` calling into ``fm`` credits the
  elimination time to ``fm``'s exclusive column, not ``counting``'s).

Exclusive columns therefore sum to (at most) the instrumented wall-time and
are the column to read when deciding what to optimise.

Memoisation counters
--------------------

The content-hash caches of :mod:`repro.sets.memo` and :mod:`repro.linalg`
register themselves here via :func:`register_cache`; :func:`snapshot`
reports their hit/miss/size counters next to the timings.  All counters are
process-wide and lock-guarded (thread pools share them; process pools keep
per-worker counters that are *not* aggregated — profile with the serial or
thread executor when attribution matters).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable

#: Canonical subsystem order for tables (anything else sorts after these).
SUBSYSTEMS = (
    "linalg", "fm", "sets", "counting", "counting-sum", "rel-closure", "pebble-sim"
)

_lock = threading.Lock()
_totals: dict[str, list[float]] = {}  # name -> [calls, inclusive, exclusive]
_local = threading.local()


def _frames() -> list:
    """Per-thread stack of [subsystem, child_time] frames."""
    frames = getattr(_local, "frames", None)
    if frames is None:
        frames = _local.frames = []
    return frames


def _active() -> set:
    active = getattr(_local, "active", None)
    if active is None:
        active = _local.active = set()
    return active


def timed(subsystem: str) -> Callable:
    """Decorator attributing a function's wall-time to ``subsystem``.

    Re-entrant calls into a subsystem already on the thread's stack run
    untimed (the outermost entry owns the whole duration), so wrapping both
    an entry point and its helpers never double-counts.
    """

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            active = _active()
            if subsystem in active:
                return fn(*args, **kwargs)
            frames = _frames()
            active.add(subsystem)
            frames.append([subsystem, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frame = frames.pop()
                active.discard(subsystem)
                if frames:
                    frames[-1][1] += elapsed
                exclusive = elapsed - frame[1]
                with _lock:
                    entry = _totals.setdefault(subsystem, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += exclusive
        return wrapper

    return decorate


class section:
    """Context-manager form of :func:`timed` for ad-hoc regions."""

    def __init__(self, subsystem: str):
        self._subsystem = subsystem
        self._reentrant = False
        self._start = 0.0

    def __enter__(self) -> "section":
        active = _active()
        if self._subsystem in active:
            self._reentrant = True
            return self
        active.add(self._subsystem)
        _frames().append([self._subsystem, 0.0])
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._reentrant:
            return
        elapsed = perf_counter() - self._start
        frames = _frames()
        frame = frames.pop()
        _active().discard(self._subsystem)
        if frames:
            frames[-1][1] += elapsed
        with _lock:
            entry = _totals.setdefault(self._subsystem, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]


# -- memo-cache registry -----------------------------------------------------

_caches: dict[str, object] = {}


def register_cache(name: str, cache: object) -> None:
    """Register a cache exposing ``hits``/``misses``/``__len__`` for reports."""
    with _lock:
        _caches[name] = cache


@dataclass(frozen=True)
class SubsystemTiming:
    name: str
    calls: int
    inclusive_s: float
    exclusive_s: float


@dataclass(frozen=True)
class CacheCounters:
    name: str
    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class PerfSnapshot:
    """A consistent view of all timers and memo counters."""

    timings: tuple[SubsystemTiming, ...]
    caches: tuple[CacheCounters, ...]

    @property
    def total_exclusive_s(self) -> float:
        return sum(t.exclusive_s for t in self.timings)

    def timing(self, name: str) -> SubsystemTiming | None:
        for entry in self.timings:
            if entry.name == name:
                return entry
        return None

    def cache(self, name: str) -> CacheCounters | None:
        for entry in self.caches:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> dict:
        return {
            "subsystems": [
                {
                    "name": t.name,
                    "calls": t.calls,
                    "inclusive_s": t.inclusive_s,
                    "exclusive_s": t.exclusive_s,
                }
                for t in self.timings
            ],
            "caches": [
                {
                    "name": c.name,
                    "hits": c.hits,
                    "misses": c.misses,
                    "size": c.size,
                    "hit_rate": c.hit_rate,
                }
                for c in self.caches
            ],
        }

    def format_table(self, wall_s: float | None = None) -> str:
        """Human-readable attribution table (what ``repro profile`` prints)."""
        lines = [
            f"{'subsystem':<12} {'calls':>9} {'inclusive':>10} {'exclusive':>10} {'share':>7}",
            "-" * 52,
        ]
        reference = wall_s if wall_s else self.total_exclusive_s
        for t in sorted(self.timings, key=lambda t: -t.exclusive_s):
            share = t.exclusive_s / reference if reference else 0.0
            lines.append(
                f"{t.name:<12} {t.calls:>9} {t.inclusive_s:>9.2f}s {t.exclusive_s:>9.2f}s "
                f"{share:>6.1%}"
            )
        attributed = self.total_exclusive_s
        if wall_s is not None:
            lines.append("-" * 52)
            lines.append(
                f"{'attributed':<12} {'':>9} {'':>10} {attributed:>9.2f}s "
                f"{attributed / wall_s if wall_s else 0.0:>6.1%}"
            )
            lines.append(f"{'wall':<12} {'':>9} {'':>10} {wall_s:>9.2f}s {'100.0%':>7}")
        if self.caches:
            lines.append("")
            lines.append(f"{'memo cache':<22} {'hits':>9} {'misses':>9} {'rate':>7} {'size':>8}")
            lines.append("-" * 58)
            for c in sorted(self.caches, key=lambda c: -c.hits):
                lines.append(
                    f"{c.name:<22} {c.hits:>9} {c.misses:>9} {c.hit_rate:>6.1%} {c.size:>8}"
                )
        return "\n".join(lines)


def _subsystem_rank(name: str):
    try:
        return (0, SUBSYSTEMS.index(name))
    except ValueError:
        return (1, name)


def snapshot() -> PerfSnapshot:
    """A consistent copy of every timer and registered cache counter."""
    with _lock:
        timings = tuple(
            SubsystemTiming(name, int(entry[0]), entry[1], entry[2])
            for name, entry in sorted(_totals.items(), key=lambda kv: _subsystem_rank(kv[0]))
        )
        caches = []
        for name, cache in sorted(_caches.items()):
            try:
                caches.append(
                    CacheCounters(name, cache.hits, cache.misses, len(cache))  # type: ignore[attr-defined]
                )
            except Exception:
                continue
    return PerfSnapshot(timings, tuple(caches))


def reset() -> None:
    """Zero every timer and every registered cache's counters."""
    with _lock:
        _totals.clear()
        caches = list(_caches.values())
    for cache in caches:
        reset_counters = getattr(cache, "reset_counters", None)
        if reset_counters is not None:
            reset_counters()


