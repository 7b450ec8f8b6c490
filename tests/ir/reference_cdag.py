"""Reference CDAG expansion: a networkx graph and its integer index.

The explicit CDAG used to be built as an ``nx.DiGraph`` with a ``kind``
attribute per vertex and then copied into a :class:`CDAGIndex` (int vertex
ids in graph insertion order, predecessor tuples, compute ids, an input
mask and a Kahn-by-generations topological order).  ``CDAG`` now builds the
integer form directly; this module keeps the graph-based construction as
the oracle that ``tests/ir/test_cdag_oracle.py`` checks it against, so ids,
operand orders and topological orders cannot move unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import networkx as nx

from repro.ir import AffineProgram

Vertex = tuple[str, tuple[int, ...]]


@dataclass
class ReferenceCDAG:
    """The graph-based explicit CDAG for one parameter instance."""

    program: AffineProgram
    params: dict[str, int]
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    inputs: set[Vertex] = field(default_factory=set)
    index: "CDAGIndex | None" = None

    @classmethod
    def expand(cls, program: AffineProgram, params: Mapping[str, int]) -> "ReferenceCDAG":
        """Materialise the CDAG of ``program`` for the given parameter values."""
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
        cdag.index = CDAGIndex(graph)
        return cdag

    @cached_property
    def flops(self) -> int:
        """Flops of one execution: statement flops summed over the compute vertices."""
        statements = self.program.statements
        return sum(statements[name].flops for name, _ in self.compute_vertices())

    @cached_property
    def extents(self) -> tuple[int, ...]:
        """Innermost-aligned iteration-space spans across all statements."""
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

    def compute_vertices(self) -> list[Vertex]:
        """All non-input vertices (the set ``V \\ I``)."""
        vertices = self.index.vertices
        return [vertices[i] for i in self.index.compute]


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
