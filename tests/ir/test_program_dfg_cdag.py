"""Tests for the program DSL, DFG construction and explicit CDAG expansion."""

import pytest

from repro.ir import CDAG, DFG, ProgramBuilder
from repro.sets import sym


def example1_program():
    """The paper's Fig. 1 example: A[i] = A[i] * C[t]."""
    return (
        ProgramBuilder("example1", ["M", "N"])
        .add_array("[N] -> { A[i] : 0 <= i < N }")
        .add_array("[M] -> { C[t] : 0 <= t < M }")
        .add_statement("[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_dependence("[M, N] -> { S[t, i] -> S[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S[t, i] -> C[t] : 0 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .build()
    )


class TestProgramBuilder:
    def test_basic_structure(self):
        program = example1_program()
        assert set(program.arrays) == {"A", "C"}
        assert set(program.statements) == {"S"}
        assert len(program.dependences) == 3
        assert program.params == ("M", "N")

    def test_input_size(self):
        program = example1_program()
        assert program.input_size() == sym("M") + sym("N")

    def test_total_flops(self):
        program = example1_program()
        assert program.total_flops() == sym("M") * sym("N")

    def test_unknown_dependence_source_rejected(self):
        builder = (
            ProgramBuilder("bad", ["N"])
            .add_statement("[N] -> { S[i] : 0 <= i < N }")
            .add_dependence("[N] -> { S[i] -> Z[i] : 1 <= i < N }")
        )
        with pytest.raises(ValueError):
            builder.build()

    def test_dependence_sink_must_be_statement(self):
        builder = (
            ProgramBuilder("bad", ["N"])
            .add_array("[N] -> { A[i] : 0 <= i < N }")
            .add_dependence("[N] -> { A[i] -> A[i] : 1 <= i < N }")
        )
        with pytest.raises(ValueError):
            builder.build()

    def test_instance_values_requires_all_params(self):
        program = example1_program()
        with pytest.raises(KeyError):
            program.instance_values({"M": 3})


class TestDFG:
    def test_nodes_and_edges(self):
        dfg = DFG.from_program(example1_program())
        assert set(dfg.statement_nodes()) == {"S"}
        assert set(dfg.array_nodes()) == {"A", "C"}
        assert len(dfg.edges_into("S")) == 3
        assert dfg.predecessors("S") == sorted(["S", "C", "A"]) or set(
            dfg.predecessors("S")
        ) == {"S", "C", "A"}

    def test_topological_statements_handles_self_loops(self):
        dfg = DFG.from_program(example1_program())
        assert dfg.topological_statements() == ["S"]

    def test_multi_statement_order(self):
        program = (
            ProgramBuilder("two", ["N"])
            .add_array("[N] -> { A[i] : 0 <= i < N }")
            .add_statement("[N] -> { S1[i] : 0 <= i < N }")
            .add_statement("[N] -> { S2[i] : 0 <= i < N }")
            .add_dependence("[N] -> { S1[i] -> A[i] : 0 <= i < N }")
            .add_dependence("[N] -> { S2[i] -> S1[i] : 0 <= i < N }")
            .build()
        )
        dfg = DFG.from_program(program)
        order = dfg.topological_statements()
        assert order.index("S1") < order.index("S2")


class TestCDAG:
    def test_vertex_counts_match_fig1(self):
        # Fig. 1c of the paper: M=6, N=7 gives 42 compute vertices and 13 inputs.
        cdag = CDAG.expand(example1_program(), {"M": 6, "N": 7})
        assert len(cdag.compute_vertices()) == 42
        assert len(cdag.inputs) == 13

    def test_edges_follow_dependences(self):
        cdag = CDAG.expand(example1_program(), {"M": 3, "N": 2})
        assert cdag.graph.has_edge(("S", (0, 1)), ("S", (1, 1)))
        assert cdag.graph.has_edge(("C", (2,)), ("S", (2, 0)))
        assert cdag.graph.has_edge(("A", (1,)), ("S", (0, 1)))
        assert not cdag.graph.has_edge(("S", (0, 0)), ("S", (0, 1)))

    def test_in_set_and_sources(self):
        cdag = CDAG.expand(example1_program(), {"M": 4, "N": 3})
        column = {("S", (t, 0)) for t in range(1, 4)}
        in_set = cdag.in_set(column)
        assert ("S", (0, 0)) in in_set
        assert all(v[0] == "C" or v == ("S", (0, 0)) for v in in_set)
        assert cdag.sources(column) == {("S", (1, 0))}

    def test_valid_schedule_detection(self):
        cdag = CDAG.expand(example1_program(), {"M": 3, "N": 2})
        good = sorted(cdag.compute_vertices(), key=lambda v: v[1])
        assert cdag.is_valid_schedule(good)
        bad = list(reversed(good))
        assert not cdag.is_valid_schedule(bad)

    def test_schedule_repeating_a_vertex_is_invalid(self):
        from repro.pebble import simulate_schedule, topological_schedule
        from repro.polybench import get_kernel

        cdag = CDAG.expand(get_kernel("atax").program, {"M": 3, "N": 3})
        schedule = list(topological_schedule(cdag))
        repeated = [schedule[0], *schedule]
        assert len(repeated) == len(cdag.compute_vertices()) + 1 == 19
        assert not cdag.is_valid_schedule(repeated)
        with pytest.raises(ValueError, match="not a valid topological order"):
            simulate_schedule(cdag, repeated, capacity=8)

    def test_schedule_dropping_or_adding_vertices_is_invalid(self):
        cdag = CDAG.expand(example1_program(), {"M": 3, "N": 2})
        good = sorted(cdag.compute_vertices(), key=lambda v: v[1])
        assert not cdag.is_valid_schedule(good[:-1])
        assert not cdag.is_valid_schedule([*good, ("A", (0,))])
        assert not cdag.is_valid_schedule([*good[:-1], ("S", (9, 9))])

    def test_topological_order_matches_networkx(self):
        """The order ``nx.topological_sort`` gives for the graph-based
        expansion (``CDAG.graph`` keeps operand orders, not successor orders)."""
        import networkx as nx
        from reference_cdag import ReferenceCDAG

        instance = {"M": 4, "N": 3}
        cdag = CDAG.expand(example1_program(), instance)
        reference = ReferenceCDAG.expand(example1_program(), instance).graph
        assert cdag.topological_order() == list(nx.topological_sort(reference))

    def test_topological_order_is_valid(self):
        cdag = CDAG.expand(example1_program(), {"M": 4, "N": 4})
        compute = set(cdag.compute_vertices())
        order = [v for v in cdag.topological_order() if v in compute]
        assert cdag.is_valid_schedule(order)
