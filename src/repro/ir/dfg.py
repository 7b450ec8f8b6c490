"""The Data-flow graph (DFG) of Sec. 3.4.

The DFG is the compact, parametric representation of the CDAG on which all
IOLB reasoning happens: one vertex per statement or input array, one edge per
flow dependence, each edge carrying its affine relation (stored in inverse
"read function" form, see :class:`repro.ir.program.FlowDep`).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .program import AffineProgram, FlowDep


@dataclass
class DFG:
    """Data-flow graph over statements and input arrays of a program."""

    program: AffineProgram
    graph: nx.MultiDiGraph

    @classmethod
    def from_program(cls, program: AffineProgram) -> "DFG":
        graph = nx.MultiDiGraph()
        for array in program.arrays.values():
            graph.add_node(array.name, kind="array", domain=array.domain)
        for statement in program.statements.values():
            graph.add_node(statement.name, kind="statement", domain=statement.domain)
        for dep in program.dependences:
            graph.add_edge(dep.source, dep.sink, dep=dep)
        return cls(program, graph)

    # -- queries -----------------------------------------------------------

    def statement_nodes(self) -> list[str]:
        return [n for n, data in self.graph.nodes(data=True) if data["kind"] == "statement"]

    def array_nodes(self) -> list[str]:
        return [n for n, data in self.graph.nodes(data=True) if data["kind"] == "array"]

    def edges_into(self, node: str) -> list[FlowDep]:
        return [data["dep"] for _, _, data in self.graph.in_edges(node, data=True)]

    def predecessors(self, node: str) -> list[str]:
        return list(self.graph.predecessors(node))

    def successors(self, node: str) -> list[str]:
        return list(self.graph.successors(node))

    def is_statement(self, node: str) -> bool:
        return self.graph.nodes[node]["kind"] == "statement"

    def topological_statements(self) -> list[str]:
        """Statements in a topological order of the statement-level condensation.

        Self-loops and cycles between statements (which exist as soon as a
        statement depends on another iteration of itself or of a mutually
        recursive statement) are collapsed, so the result is a valid
        processing order for path searches.
        """
        condensation = nx.condensation(nx.DiGraph(self.graph))
        order: list[str] = []
        for component in nx.topological_sort(condensation):
            members = condensation.nodes[component]["members"]
            order.extend(sorted(m for m in members if self.is_statement(m)))
        return order

    def __repr__(self) -> str:
        return f"DFG({self.program.name!r}, nodes={self.graph.number_of_nodes()}, edges={self.graph.number_of_edges()})"
