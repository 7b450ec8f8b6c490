"""Explicit CDAG expansion for concrete parameter values.

The CDAG (Def. 3.1) is the fully unrolled computation graph: one vertex per
statement instance and per input-array element, one edge per value flow.  The
paper only ever manipulates its compact DFG representation; we additionally
materialise it for *small* parameter instances, which gives us

* a ground truth for testing the polyhedral machinery (domains, dependences,
  In-sets) against brute-force enumeration, and
* the substrate on which the red-white pebble game and the cache simulators of
  :mod:`repro.pebble` run (the Sec. 8.2 experiment).

A CDAG is held in integer form only: vertex ids with predecessor and
successor tuples, numbered the way a networkx ``DiGraph`` fed the same vertex
and edge insertions would number them, so ids, operand orders and
:attr:`CDAG.topological` are those of ``nx.topological_sort`` on that graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

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


class CDAG:
    """An explicit computational DAG for one parameter instance.

    ``nodes`` are ``(vertex, kind)`` pairs in insertion order, kind
    ``"input"`` or ``"statement"``, and ``edges`` ``(source, sink)`` pairs.
    Ids follow first appearance (a repeated vertex takes the later kind, an
    edge endpoint not among ``nodes`` is an input), ``preds[i]`` follows
    first insertion with repeated edges dropped, ``succ[i]`` edge order.
    """

    def __init__(
        self,
        program: AffineProgram | None,
        params: Mapping[str, int],
        nodes: Iterable[tuple[Vertex, str]],
        edges: Iterable[tuple[Vertex, Vertex]],
    ):
        self.program = program
        self.params = dict(params)
        self.inputs: set[Vertex] = set()
        self.ids: dict[Vertex, int] = {}
        statement: list[bool] = []
        preds: list[list[int]] = []
        succ: list[list[int]] = []

        def vertex_id(vertex: Vertex) -> int:
            if vertex not in self.ids:
                self.ids[vertex] = len(statement)
                statement.append(False)
                preds.append([])
                succ.append([])
            return self.ids[vertex]

        for vertex, kind in nodes:
            statement[vertex_id(vertex)] = kind == "statement"
            if kind == "input":
                self.inputs.add(vertex)
        for source, sink in edges:
            u, v = vertex_id(source), vertex_id(sink)
            if u not in preds[v]:
                preds[v].append(u)
                succ[u].append(v)
        self.vertices: tuple[Vertex, ...] = tuple(self.ids)
        self.preds: tuple[tuple[int, ...], ...] = tuple(map(tuple, preds))
        self.succ: tuple[tuple[int, ...], ...] = tuple(map(tuple, succ))
        self.compute: tuple[int, ...] = tuple(i for i, s in enumerate(statement) if s)
        self.is_input = bytearray(not s for s in statement)

    @classmethod
    def expand(cls, program: AffineProgram, params: Mapping[str, int]) -> "CDAG":
        """Materialise the CDAG of ``program`` for the given parameter values."""
        global _expansions
        _expansions += 1
        params = program.instance_values(params)

        domains: dict[str, set[tuple[int, ...]]] = {}
        nodes: list[tuple[Vertex, str]] = []
        for array in program.arrays.values():
            points = set(array.domain.enumerate_points(params))
            domains[array.name] = points
            if array.is_input:
                nodes += [((array.name, point), "input") for point in points]
        for statement in program.statements.values():
            points = set(statement.domain.enumerate_points(params))
            domains[statement.name] = points
            nodes += [((statement.name, point), "statement") for point in points]

        edges: list[tuple[Vertex, Vertex]] = []
        for dep in program.dependences:
            source_points = domains.get(dep.source, set())
            for sink_point in dep.domain.enumerate_points(params):
                if sink_point not in domains[dep.sink]:
                    continue
                source_point = dep.function.apply_to_point(sink_point, params)
                if source_point in source_points:
                    edges.append(((dep.source, source_point), (dep.sink, sink_point)))
        return cls(program, params, nodes, edges)

    @property
    def graph(self):
        """A new ``nx.DiGraph`` on every read, for readers outside the package.

        Vertices come in id order with their ``kind``, operands in
        :attr:`preds` order, successors in sink id order (not :attr:`succ`'s).
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(
            (vertex, {"kind": "input" if flag else "statement"})
            for vertex, flag in zip(self.vertices, self.is_input)
        )
        graph.add_edges_from(
            (self.vertices[u], vertex) for vertex, p in zip(self.vertices, self.preds) for u in p
        )
        return graph

    @cached_property
    def topological(self) -> tuple[int, ...]:
        """All vertex ids in ``nx.topological_sort`` order.

        Kahn's algorithm by generations over :attr:`succ`, so the order is
        the one networkx gives for a ``DiGraph`` fed the constructor's calls.
        """
        succ = self.succ
        pending = [len(p) for p in self.preds]
        generation = [i for i, count in enumerate(pending) if count == 0]
        order: list[int] = []
        while generation:
            order.extend(generation)
            following = []
            for i in generation:
                for child in succ[i]:
                    pending[child] -= 1
                    if pending[child] == 0:
                        following.append(child)
            generation = following
        if len(order) != len(self.vertices):
            raise ValueError("the CDAG contains a cycle")
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
        spans: dict[int, tuple[int, int]] = {}
        for _, points in self.statements.values():
            offset = depth - points.shape[1]
            for slot, low, high in zip(range(offset, depth), points.min(0), points.max(0)):
                old = spans.get(slot, (low, high))
                spans[slot] = (min(old[0], low), max(old[1], high))
        return tuple(
            int(spans[slot][1] - spans[slot][0]) + 1 if slot in spans else 1
            for slot in range(depth)
        )

    # -- queries -----------------------------------------------------------

    def compute_vertices(self) -> list[Vertex]:
        """All non-input vertices (the set ``V \\ I``)."""
        vertices = self.vertices
        return [vertices[i] for i in self.compute]

    def statement_vertices(self, statement: str) -> list[Vertex]:
        return [v for v in self.compute_vertices() if v[0] == statement]

    def in_set(self, vertices: set[Vertex]) -> set[Vertex]:
        """In(P): vertices outside P with a successor inside P (Def. 3.4)."""
        operands = {self.vertices[p] for v in vertices for p in self.preds[self.ids[v]]}
        return operands - vertices

    def sources(self, vertices: set[Vertex]) -> set[Vertex]:
        """Sources(P): vertices of P with no predecessor inside P (Def. 3.8)."""
        return {
            vertex
            for vertex in vertices
            if all(self.vertices[p] not in vertices for p in self.preds[self.ids[vertex]])
        }

    def topological_order(self) -> list[Vertex]:
        """Every vertex, inputs included, in ``nx.topological_sort`` order."""
        vertices = self.vertices
        return [vertices[i] for i in self.topological]

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

    def is_valid_schedule(self, schedule: Sequence[Vertex]) -> bool:
        """True when the schedule runs every compute vertex once, after its operands."""
        return self.schedule_ids(schedule) is not None

    def __repr__(self) -> str:
        name = self.program.name if self.program is not None else None
        edges = sum(map(len, self.preds))
        return f"CDAG({name!r}, params={self.params}, |V|={len(self.vertices)}, |E|={edges})"
