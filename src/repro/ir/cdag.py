"""Explicit CDAG expansion for concrete parameter values.

The CDAG (Def. 3.1) is the fully unrolled computation graph: one vertex per
statement instance and per input-array element, one edge per value flow.  The
paper only ever manipulates its compact DFG representation; we additionally
materialise it for *small* parameter instances, which gives us

* a ground truth for testing the polyhedral machinery (domains, dependences,
  In-sets) against brute-force enumeration, and
* the substrate on which the red-white pebble game and the cache simulators of
  :mod:`repro.pebble` run (the Sec. 8.2 experiment).

The networkx graph (``CDAG.graph``) is what the polyhedral tests and the
wavefront checks read.  The schedule and simulation paths read a
:class:`CDAGIndex` instead: int vertex ids in graph insertion order,
predecessor tuples, the compute ids, an input mask and a cached topological
order.  ``CDAG.expand`` builds the index eagerly; a CDAG whose graph is built
by hand gets it on its first query, so such a graph must be complete before it
is queried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from .program import AffineProgram

Vertex = tuple[str, tuple[int, ...]]

#: Process-wide count of CDAG expansions.  The symbolic wavefront validation
#: makes the default derivation pipeline expansion-free; tests assert that by
#: sampling this counter around a suite run.
_expansions = 0


def expand_count() -> int:
    """Number of CDAG expansions performed in this process since the last reset."""
    return _expansions


def reset_expand_count() -> int:
    """Reset the expansion counter; returns the prior count."""
    global _expansions
    previous = _expansions
    _expansions = 0
    return previous


class CDAGIndex:
    """Integer view of a finished CDAG graph for the schedule and simulation paths.

    Vertex ``i`` is the ``i``-th vertex in graph insertion order;
    ``preds[i]`` lists its predecessors in the graph's adjacency order.
    Every vertex that is not a statement instance is an input.
    """

    def __init__(self, graph: nx.DiGraph):
        self.vertices: tuple[Vertex, ...] = tuple(graph)
        self.ids: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        ids = self.ids
        self.preds: tuple[tuple[int, ...], ...] = tuple(
            tuple(ids[u] for u in adjacency) for adjacency in graph.pred.values()
        )
        kinds = graph.nodes(data="kind")
        self.compute: tuple[int, ...] = tuple(
            i for i, v in enumerate(self.vertices) if kinds[v] == "statement"
        )
        self.is_input = bytearray([1]) * len(self.vertices)
        for i in self.compute:
            self.is_input[i] = 0
        self._succ = graph.succ

    @cached_property
    def topological(self) -> tuple[int, ...]:
        """All vertex ids in ``nx.topological_sort`` order.

        Kahn's algorithm by generations over the graph's successor order, so
        the order is the one networkx gives for the same graph.
        """
        ids, vertices = self.ids, self.vertices
        pending = [len(p) for p in self.preds]
        generation = [i for i, count in enumerate(pending) if count == 0]
        order: list[int] = []
        while generation:
            order.extend(generation)
            following = []
            for i in generation:
                for child in self._succ[vertices[i]]:
                    child = ids[child]
                    pending[child] -= 1
                    if pending[child] == 0:
                        following.append(child)
            generation = following
        if len(order) != len(vertices):
            raise nx.NetworkXUnfeasible("the CDAG contains a cycle")
        return tuple(order)

    @cached_property
    def compute_topological(self) -> tuple[int, ...]:
        """The compute ids in :attr:`topological` order."""
        is_input = self.is_input
        return tuple(i for i in self.topological if not is_input[i])

    @cached_property
    def statements(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per statement, its compute ids and their points (one row each), in id order."""
        groups: dict[str, tuple[list[int], list[tuple[int, ...]]]] = {}
        for i in self.compute:
            name, point = self.vertices[i]
            ids, points = groups.setdefault(name, ([], []))
            ids.append(i)
            points.append(point)
        return {
            name: (
                np.array(ids, dtype=np.int64),
                np.array(points, dtype=np.int64).reshape(len(ids), len(points[0])),
            )
            for name, (ids, points) in groups.items()
        }

    def schedule_ids(self, schedule: Sequence[Vertex]) -> list[int] | None:
        """The ids of a valid schedule, or None when it is not one.

        Valid means every compute vertex exactly once, each after all its
        compute predecessors.
        """
        try:
            order = [self.ids[v] for v in schedule]
        except KeyError:
            return None
        return order if self.is_valid_order(order) else None

    def is_valid_order(self, order: Sequence[int]) -> bool:
        """True when ``order`` runs every compute id once, after its operands."""
        if len(order) != len(self.compute):
            return False
        done = bytearray(self.is_input)
        preds = self.preds
        for vertex in order:
            if done[vertex]:
                return False  # an input, or a repeat
            for predecessor in preds[vertex]:
                if not done[predecessor]:
                    return False
            done[vertex] = 1
        return True


@dataclass
class CDAG:
    """An explicit computational DAG for one parameter instance."""

    program: AffineProgram
    params: dict[str, int]
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    inputs: set[Vertex] = field(default_factory=set)
    _index: CDAGIndex | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def expand(cls, program: AffineProgram, params: Mapping[str, int]) -> "CDAG":
        """Materialise the CDAG of ``program`` for the given parameter values."""
        global _expansions
        _expansions += 1
        params = program.instance_values(params)
        cdag = cls(program, dict(params))
        graph = cdag.graph

        domains: dict[str, set[tuple[int, ...]]] = {}
        for array in program.arrays.values():
            points = set(array.domain.enumerate_points(params))
            domains[array.name] = points
            if array.is_input:
                for point in points:
                    vertex = (array.name, point)
                    graph.add_node(vertex, kind="input")
                    cdag.inputs.add(vertex)
        for statement in program.statements.values():
            points = set(statement.domain.enumerate_points(params))
            domains[statement.name] = points
            for point in points:
                graph.add_node((statement.name, point), kind="statement")

        for dep in program.dependences:
            source_points = domains.get(dep.source, set())
            for sink_point in dep.domain.enumerate_points(params):
                if sink_point not in domains[dep.sink]:
                    continue
                source_point = dep.function.apply_to_point(sink_point, params)
                if source_point in source_points:
                    graph.add_edge((dep.source, source_point), (dep.sink, sink_point))
        cdag._index = CDAGIndex(graph)
        return cdag

    @property
    def index(self) -> CDAGIndex:
        """The integer index of the graph, built on first use."""
        if self._index is None:
            self._index = CDAGIndex(self.graph)
        return self._index

    @cached_property
    def flops(self) -> int:
        """Flops of one execution: statement flops summed over the compute vertices.

        Every valid schedule is a permutation of the compute vertices, so this
        is the flop count of any of them.
        """
        statements = self.program.statements
        return sum(statements[name].flops for name, _ in self.compute_vertices())

    @cached_property
    def extents(self) -> tuple[int, ...]:
        """Innermost-aligned iteration-space spans across all statements.

        Slot ``k`` of a depth-``d`` statement's point lands in slot
        ``k + depth - d``, where ``depth`` is the deepest statement's depth.
        """
        depth = max(
            (len(statement.dims) for statement in self.program.statements.values()),
            default=0,
        )
        lows: list[int | None] = [None] * depth
        highs: list[int | None] = [None] * depth
        for _, point in self.compute_vertices():
            offset = depth - len(point)
            for local, coordinate in enumerate(point):
                slot = offset + local
                if lows[slot] is None or coordinate < lows[slot]:
                    lows[slot] = coordinate
                if highs[slot] is None or coordinate > highs[slot]:
                    highs[slot] = coordinate
        return tuple(
            1 if lows[slot] is None else highs[slot] - lows[slot] + 1
            for slot in range(depth)
        )

    # -- queries -----------------------------------------------------------

    def compute_vertices(self) -> list[Vertex]:
        """All non-input vertices (the set ``V \\ I``)."""
        vertices = self.index.vertices
        return [vertices[i] for i in self.index.compute]

    def statement_vertices(self, statement: str) -> list[Vertex]:
        return [v for v in self.compute_vertices() if v[0] == statement]

    def in_set(self, vertices: set[Vertex]) -> set[Vertex]:
        """In(P): vertices outside P with a successor inside P (Def. 3.4)."""
        result = set()
        for vertex in vertices:
            for predecessor in self.graph.predecessors(vertex):
                if predecessor not in vertices:
                    result.add(predecessor)
        return result

    def sources(self, vertices: set[Vertex]) -> set[Vertex]:
        """Sources(P): vertices of P with no predecessor inside P (Def. 3.8)."""
        result = set()
        for vertex in vertices:
            if all(p not in vertices for p in self.graph.predecessors(vertex)):
                result.add(vertex)
        return result

    def topological_order(self) -> list[Vertex]:
        """Every vertex, inputs included, in ``nx.topological_sort`` order."""
        vertices = self.index.vertices
        return [vertices[i] for i in self.index.topological]

    def is_valid_schedule(self, schedule: Sequence[Vertex]) -> bool:
        """True when the schedule runs every compute vertex once, after its operands."""
        return self.index.schedule_ids(schedule) is not None

    def __repr__(self) -> str:
        return (
            f"CDAG({self.program.name!r}, params={self.params}, "
            f"|V|={self.graph.number_of_nodes()}, |E|={self.graph.number_of_edges()})"
        )
