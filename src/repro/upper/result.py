"""Result records of the tiling search: one simulation, one search outcome.

Both records are lossless JSON documents built from plain ``int``/``str``/
``bool`` leaves (tuples become lists on the way out and back), so they can sit
in the :class:`~repro.analysis.BoundStore` next to ``IOBoundResult`` entries
and round-trip through ``cache export`` archives unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from ..pebble import SimulationResult


@dataclass(frozen=True)
class TileSimulation:
    """One cache simulation of one tile shape under one replacement policy.

    ``shape`` is the global tile-edge vector, innermost-aligned across the
    program's statements (see :func:`repro.upper.search.tile_sizes_for`); the
    all-ones shape is the untiled program-order baseline.  ``simulated`` is
    False when the schedule was skipped — either the rectangular tiling was
    illegal for the CDAG (``used_fallback``) so simulating it would score a
    schedule that does not realise the tiling, or the cache could not hold a
    single operation's operands.  Skipped records are still persisted: a warm
    search rerun must not re-discover which tilings were meaningless.
    """

    shape: tuple[int, ...]
    policy: str
    capacity: int
    simulated: bool
    used_fallback: bool = False
    loads: int = 0
    evictions: int = 0
    operations: int = 0
    flops: int = 0

    def achieved_oi(self) -> float:
        """Achieved OI = #flops / #loads, via the simulator's own method."""
        if not self.simulated or self.operations == 0:
            return 0.0
        return SimulationResult(
            loads=self.loads,
            evictions=self.evictions,
            operations=self.operations,
            capacity=self.capacity,
            policy=self.policy,
        ).operational_intensity(flops_per_op=self.flops / self.operations)

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "policy": self.policy,
            "capacity": self.capacity,
            "simulated": self.simulated,
            "used_fallback": self.used_fallback,
            "loads": self.loads,
            "evictions": self.evictions,
            "operations": self.operations,
            "flops": self.flops,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TileSimulation":
        """Decode a record; equal records decode to one shared (frozen) object."""
        return _shared_simulation(
            tuple(int(s) for s in payload["shape"]),
            str(payload["policy"]),
            int(payload["capacity"]),
            bool(payload["simulated"]),
            bool(payload.get("used_fallback", False)),
            int(payload.get("loads", 0)),
            int(payload.get("evictions", 0)),
            int(payload.get("operations", 0)),
            int(payload.get("flops", 0)),
        )


@lru_cache(maxsize=4096)
def _shared_simulation(*fields) -> TileSimulation:
    """One instance per distinct record among the recently decoded ones.

    A warm report decodes every cell of its search from the store; sharing
    the frozen records keeps repeated warm reports from holding a copy each.
    """
    return TileSimulation(*fields)


@dataclass(frozen=True)
class UpperBoundResult:
    """Outcome of a tiling search for one program instance and cache size.

    ``best`` is the simulated record with the fewest loads — a sound upper
    bound on the instance's optimal I/O, because every simulated schedule is
    a validated red-white pebble game.  ``simulations`` keeps every record
    the search produced (including skipped ones), so the result doubles as a
    search trace.  The record is frozen: a warm search returns the one
    outcome its store decoded to every caller that reads it.
    """

    program: str
    instance: dict[str, int]
    cache_words: int
    best: TileSimulation | None
    simulations: tuple[TileSimulation, ...] = ()

    @property
    def candidates(self) -> int:
        """Tile shapes examined (each simulated under every policy)."""
        return len({sim.shape for sim in self.simulations})

    @property
    def skipped_fallback(self) -> int:
        """Tilings skipped because their rectangular order was illegal."""
        return sum(1 for sim in self.simulations if not sim.simulated and sim.used_fallback)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "instance": dict(self.instance),
            "cache_words": self.cache_words,
            "best": None if self.best is None else self.best.to_dict(),
            "simulations": [sim.to_dict() for sim in self.simulations],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "UpperBoundResult":
        best = payload.get("best")
        return cls(
            program=str(payload["program"]),
            instance={str(k): int(v) for k, v in dict(payload["instance"]).items()},
            cache_words=int(payload["cache_words"]),
            best=None if best is None else TileSimulation.from_dict(best),
            simulations=tuple(
                TileSimulation.from_dict(s) for s in payload.get("simulations", [])
            ),
        )


def select_best(simulations: Iterable[TileSimulation]) -> TileSimulation | None:
    """Deterministic winner: fewest loads among simulated records.

    Non-fallback records (the schedule realises its tiling) win over the
    fallback baseline at equal loads; remaining ties break on policy name
    and shape so every executor and scheduling elects the same record.
    """
    ranked = [sim for sim in simulations if sim.simulated]
    if not ranked:
        return None
    return min(ranked, key=lambda sim: (sim.loads, sim.used_fallback, sim.policy, sim.shape))
