"""Cache simulators that execute a schedule and count loads.

These play the role of the Dinero cache simulator in the paper's Sec. 8.2
experiment: given a schedule (an ordered list of compute vertices of an
explicit CDAG), they simulate a fully-associative fast memory of ``S`` values
with either an LRU or an optimal (Belady) replacement policy and return the
number of loads — which, divided into the operation count, gives the achieved
operational intensity of that schedule.

The simulation runs on the CDAG's integer form (:class:`repro.ir.cdag.CDAG`:
vertex ids, predecessor tuples, an input mask) and plays a red-white pebble
game (Def. 3.2) in-line: the schedule is checked up front to be a
topological order of the compute vertices, and every load, compute and
eviction is checked against the rules (no load of an uncomputed value, no
double load, no recomputation, operands in fast memory, capacity, evict only
resident values) as an O(1) test on bytearrays, raising
:class:`PebbleGameError` on a violation.  The reported cost is
therefore the cost of a *legal* game; in particular it can never be below the
IOLB lower bound (the property the integration tests check).

* **LRU** keeps the resident vertices in an ``OrderedDict`` from least to
  most recently used; a victim is the first one that is not an operand of
  the current operation.
* **Belady** keeps a heap of ``(-next use, vertex id)`` entries, one pushed
  per use, and drops stale ones when they surface.  It evicts the furthest
  next use first and, among equally distant ones (values never used again
  included), the lowest vertex id.

The tests check loads and evictions against a move-by-move reference
simulator that plays every move through a game-state rule checker.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heappop, heappush

from ..ir import CDAG, Vertex

from .. import perf


class PebbleGameError(ValueError):
    """Raised when a sequence of moves violates the game rules."""


@dataclass
class SimulationResult:
    """Outcome of simulating one schedule against one cache configuration."""

    loads: int
    evictions: int
    operations: int
    capacity: int
    policy: str

    def operational_intensity(self, flops_per_op: float = 1.0) -> float:
        """Achieved OI = #flops / #words loaded."""
        if self.loads == 0:
            return float("inf")
        return self.operations * flops_per_op / self.loads


class _LRU:
    """Resident vertex ids, least recently used first."""

    def __init__(self) -> None:
        self.resident: "OrderedDict[int, None]" = OrderedDict()

    def reuse(self, vertex: int, time: int, slot: int) -> None:
        self.resident.move_to_end(vertex)

    def add(self, vertex: int, time: int, slot: int) -> None:
        self.resident[vertex] = None

    def victim(self, protected: tuple[int, ...]) -> int:
        for vertex in self.resident:
            if vertex not in protected:
                del self.resident[vertex]
                return vertex
        raise RuntimeError("no evictable value: cache too small for one operation")


class _Belady:
    """Furthest-next-use replacement over a lazily invalidated heap.

    ``operand_next[t][k]`` is the next use after time ``t`` of the ``k``-th
    operand of the vertex scheduled at ``t``; ``result_next[t]`` is the first
    use of that vertex's own value (``slot == -1``).  A heap entry is live
    while it equals ``key[vertex]``; evicting or touching a vertex again
    changes the key, which retires the old entry.
    """

    def __init__(self, preds: tuple[tuple[int, ...], ...], order: list[int], size: int):
        never = len(order)
        upcoming = [never] * size
        self.result_next = [never] * len(order)
        self.operand_next: list[tuple[int, ...]] = [()] * len(order)
        for time in range(len(order) - 1, -1, -1):
            vertex = order[time]
            self.result_next[time] = upcoming[vertex]
            operands = preds[vertex]
            self.operand_next[time] = tuple(upcoming[operand] for operand in operands)
            for operand in operands:
                upcoming[operand] = time
        self.key = [1] * size  # 1 = not resident (live keys are <= 0)
        self.heap: list[tuple[int, int]] = []

    def reuse(self, vertex: int, time: int, slot: int) -> None:
        key = -(self.result_next[time] if slot < 0 else self.operand_next[time][slot])
        self.key[vertex] = key
        heappush(self.heap, (key, vertex))

    add = reuse

    def victim(self, protected: tuple[int, ...]) -> int:
        heap, keys = self.heap, self.key
        kept = []
        while heap:
            entry = heappop(heap)
            key, vertex = entry
            if keys[vertex] != key:
                continue
            if vertex in protected:
                kept.append(entry)
                continue
            for entry in kept:
                heappush(heap, entry)
            keys[vertex] = 1
            return vertex
        raise RuntimeError("no evictable value: cache too small for one operation")


@perf.timed("pebble-sim")
def simulate_schedule(
    cdag: CDAG,
    schedule: list[Vertex],
    capacity: int,
    policy: str = "lru",
) -> SimulationResult:
    """Execute a topological schedule with the given replacement policy.

    Each scheduled operation loads (or reuses) its operands, computes its
    value into fast memory, and evicts as needed.  Every move is checked
    against the pebble-game rules, so the returned load count is the cost of
    a legal S-RW game.
    """
    if policy not in ("lru", "opt"):
        raise ValueError(f"unknown replacement policy {policy!r}")
    order = cdag.schedule_ids(schedule)
    if order is None:
        raise ValueError("schedule is not a valid topological order of the CDAG")
    preds, vertices = cdag.preds, cdag.vertices
    size = len(vertices)
    cache = _LRU() if policy == "lru" else _Belady(preds, order, size)
    reuse, add, choose_victim = cache.reuse, cache.add, cache.victim

    # The rule checks below are the pebble-game rules R1-R3, on bytearrays.
    white = bytearray(cdag.is_input)  # computed (or input) values
    red = bytearray(size)  # values in fast memory
    held = loads = evictions = 0

    def evict(protected: tuple[int, ...]) -> None:
        victim = choose_victim(protected)
        if not red[victim]:
            raise PebbleGameError(
                f"evicting a value not in fast memory: {vertices[victim]}"
            )
        red[victim] = 0

    for time, vertex in enumerate(order):
        operands = preds[vertex]
        if len(operands) + 1 > capacity:
            raise ValueError(
                f"cache of {capacity} words cannot hold the {len(operands)} "
                f"operands of {vertices[vertex]}"
            )
        for slot, operand in enumerate(operands):
            if red[operand]:
                reuse(operand, time, slot)
                continue
            if held >= capacity:
                evict(operands)
                held -= 1
                evictions += 1
            if not white[operand]:
                raise PebbleGameError(
                    f"load of a value never computed: {vertices[operand]}"
                )
            if red[operand]:
                raise PebbleGameError(
                    f"load of a value already in fast memory: {vertices[operand]}"
                )
            if held >= capacity:
                raise PebbleGameError("fast memory over capacity on load")
            red[operand] = 1
            held += 1
            loads += 1
            add(operand, time, slot)
        if held >= capacity:
            evict(operands)
            held -= 1
            evictions += 1
        if white[vertex]:
            raise PebbleGameError(f"recomputation is not allowed: {vertices[vertex]}")
        for operand in operands:
            if not red[operand]:
                raise PebbleGameError(
                    f"computing {vertices[vertex]} but operand "
                    f"{vertices[operand]} is not in fast memory"
                )
        if held >= capacity:
            raise PebbleGameError("fast memory over capacity on compute")
        red[vertex] = white[vertex] = 1
        held += 1
        add(vertex, time, -1)

    return SimulationResult(
        loads=loads,
        evictions=evictions,
        operations=len(order),
        capacity=capacity,
        policy=policy,
    )
