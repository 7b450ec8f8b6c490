"""Reference cache simulator: the oracle for ``repro.pebble.simulate_schedule``.

This is the straightforward simulator the indexed one replaced.  It keeps
vertices as ``(statement, point)`` tuples, asks a replacement-policy object
for every victim, and plays every move through
:class:`pebble_game.GameState`, which re-checks the red-white rules against
the networkx form of the CDAG (``CDAG.graph``).  It is slow (LRU rescans
every vertex ever touched, Belady scans the whole resident set) but
obviously faithful, so the differential tests compare loads and evictions
against it.

Belady breaks ties between equally distant next uses in the iteration order
of the resident ``set``, i.e. in hash order; the indexed simulator breaks
them by lowest vertex id.  The tests run it under more than one
``PYTHONHASHSEED`` to show the choice never changes a load count.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.ir import CDAG, Vertex
from repro.pebble import SimulationResult

from pebble_game import GameState, Move


class _ReplacementPolicy:
    """Interface for replacement policies over a fully-associative cache."""

    def touch(self, vertex: Vertex, time: int) -> None:
        raise NotImplementedError

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        raise NotImplementedError


class _LRUPolicy(_ReplacementPolicy):
    def __init__(self) -> None:
        self.last_use: "OrderedDict[Vertex, int]" = OrderedDict()

    def touch(self, vertex: Vertex, time: int) -> None:
        self.last_use[vertex] = time
        self.last_use.move_to_end(vertex)

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        for vertex in self.last_use:
            if vertex in resident and vertex not in protected:
                return vertex
        # Fall back to any unprotected resident value.
        for vertex in resident:
            if vertex not in protected:
                return vertex
        raise RuntimeError("no evictable value: cache too small for one operation")


class _BeladyPolicy(_ReplacementPolicy):
    """Optimal (furthest-next-use) replacement, given the whole schedule."""

    def __init__(self, future_uses: dict[Vertex, list[int]]):
        self.future_uses = future_uses

    def touch(self, vertex: Vertex, time: int) -> None:
        uses = self.future_uses.get(vertex)
        while uses and uses[0] <= time:
            uses.pop(0)

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        best_vertex = None
        best_next_use = -1
        for vertex in resident:
            if vertex in protected:
                continue
            uses = self.future_uses.get(vertex, [])
            next_use = uses[0] if uses else float("inf")
            if next_use > best_next_use:
                best_next_use = next_use
                best_vertex = vertex
        if best_vertex is None:
            raise RuntimeError("no evictable value: cache too small for one operation")
        return best_vertex


def reference_simulate(
    cdag: CDAG,
    schedule: list[Vertex],
    capacity: int,
    policy: str = "lru",
) -> SimulationResult:
    """Execute a topological schedule move by move through ``GameState``."""
    if policy not in ("lru", "opt"):
        raise ValueError(f"unknown replacement policy {policy!r}")
    if not cdag.is_valid_schedule(schedule):
        raise ValueError("schedule is not a valid topological order of the CDAG")

    graph = cdag.graph  # ``CDAG.graph`` builds a new graph per read
    if policy == "lru":
        replacement: _ReplacementPolicy = _LRUPolicy()
    else:
        future_uses: dict[Vertex, list[int]] = defaultdict(list)
        for time, vertex in enumerate(schedule):
            for operand in graph.predecessors(vertex):
                future_uses[operand].append(time)
        replacement = _BeladyPolicy(dict(future_uses))

    state = GameState(cdag, capacity)
    evictions = 0

    for time, vertex in enumerate(schedule):
        operands = list(graph.predecessors(vertex))
        if len(operands) + 1 > capacity:
            raise ValueError(
                f"cache of {capacity} words cannot hold the {len(operands)} operands of {vertex}"
            )
        protected = set(operands) | {vertex}
        for operand in operands:
            if operand in state.red:
                replacement.touch(operand, time)
                continue
            if len(state.red) >= capacity:
                victim = replacement.choose_victim(state.red, protected, time)
                state.apply(Move("evict", victim))
                evictions += 1
            state.apply(Move("load", operand))
            replacement.touch(operand, time)
        if len(state.red) >= capacity:
            victim = replacement.choose_victim(state.red, protected, time)
            state.apply(Move("evict", victim))
            evictions += 1
        state.apply(Move("compute", vertex))
        replacement.touch(vertex, time)

    return SimulationResult(
        loads=state.loads,
        evictions=evictions,
        operations=len(schedule),
        capacity=capacity,
        policy=policy,
    )
