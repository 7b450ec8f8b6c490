"""Move-by-move red-white pebble game (Def. 3.2): the oracle's rule checker.

The game models a two-level memory hierarchy with an explicitly managed fast
memory of ``S`` words:

* a **white pebble** on a vertex means its value has been computed;
* a **red pebble** means the value currently resides in fast memory;
* computing a vertex (rule R2) requires red pebbles on all its predecessors;
* re-loading an already computed value (rule R1) is the unit of I/O cost.

:class:`GameState` applies one move at a time and checks it against the
networkx form of the CDAG (``CDAG.graph``); :func:`validate_game` replays a
whole game and returns its number of R1 moves.  :func:`repro.pebble.simulate_schedule` enforces the
same rules in-line on the CDAG's integer form; :mod:`reference_cache`
drives every move of its reference simulator through :class:`GameState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.ir import CDAG, Vertex
from repro.pebble import PebbleGameError

MoveKind = Literal["load", "compute", "evict"]


@dataclass(frozen=True)
class Move:
    """One move of the red-white pebble game."""

    kind: MoveKind
    vertex: Vertex


@dataclass
class GameState:
    """Mutable state of a red-white pebble game in progress."""

    cdag: CDAG
    capacity: int
    red: set[Vertex] = field(default_factory=set)
    white: set[Vertex] = field(default_factory=set)
    loads: int = 0
    graph: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Input vertices start with a white pebble (their values exist in slow
        # memory); nothing is in fast memory initially.
        self.white |= set(self.cdag.inputs)
        self.graph = self.cdag.graph  # ``CDAG.graph`` builds a new graph per read

    def apply(self, move: Move) -> None:
        """Apply one move, enforcing rules R1-R3 of Def. 3.2."""
        vertex = move.vertex
        if move.kind == "load":
            if vertex not in self.white:
                raise PebbleGameError(f"load of a value never computed: {vertex}")
            if vertex in self.red:
                raise PebbleGameError(f"load of a value already in fast memory: {vertex}")
            if len(self.red) >= self.capacity:
                raise PebbleGameError("fast memory over capacity on load")
            self.red.add(vertex)
            self.loads += 1
        elif move.kind == "compute":
            if vertex in self.white:
                raise PebbleGameError(f"recomputation is not allowed: {vertex}")
            for predecessor in self.graph.predecessors(vertex):
                if predecessor not in self.red:
                    raise PebbleGameError(
                        f"computing {vertex} but operand {predecessor} is not in fast memory"
                    )
            if len(self.red) >= self.capacity:
                raise PebbleGameError("fast memory over capacity on compute")
            self.red.add(vertex)
            self.white.add(vertex)
        elif move.kind == "evict":
            if vertex not in self.red:
                raise PebbleGameError(f"evicting a value not in fast memory: {vertex}")
            self.red.remove(vertex)
        else:  # pragma: no cover - guarded by the Literal type
            raise PebbleGameError(f"unknown move kind {move.kind!r}")

    def is_complete(self) -> bool:
        """True when every compute vertex has been computed."""
        return all(v in self.white for v in self.cdag.compute_vertices())


def validate_game(cdag: CDAG, capacity: int, moves: Iterable[Move]) -> int:
    """Validate a complete game and return its I/O cost (number of loads)."""
    state = GameState(cdag, capacity)
    for move in moves:
        state.apply(move)
    if not state.is_complete():
        raise PebbleGameError("game ended before all vertices were computed")
    return state.loads
