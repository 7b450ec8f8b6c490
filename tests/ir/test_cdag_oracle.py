"""The integer CDAG against the graph-based reference expansion.

``CDAG`` numbers vertices and orders operands and successors the way the
networkx graph it replaced did (``tests/ir/reference_cdag.py``).  Schedules,
simulated loads and report bytes all follow from those orders, so they are
compared case by case: every PolyBench kernel with each parameter at most 5,
and the fuzz small/wide/deep programs of seeds 0-11 at every profile
instance.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.fuzz import PROFILES, random_program
from repro.ir import CDAG
from repro.polybench import get_kernel, kernel_names

from reference_cdag import ReferenceCDAG


def _cases():
    for name in kernel_names():
        spec = get_kernel(name)
        small = {param: min(value, 5) for param, value in spec.large_instance.items()}
        yield name, spec.program, small
    for profile in ("small", "wide", "deep"):
        for seed in range(12):
            program = random_program(seed, profile)
            for number, instance in enumerate(PROFILES[profile].instance_dicts()):
                yield f"{profile}-{seed}-{number}", program, instance


CASES = list(_cases())


def _successors(graph, ids, vertices) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(ids[child] for child in graph.succ[vertex]) for vertex in vertices)


def test_the_battery_has_every_case():
    assert len(CASES) == 102


@pytest.mark.parametrize("name, program, instance", CASES, ids=[case[0] for case in CASES])
def test_expansion_matches_the_reference(name, program, instance):
    reference = ReferenceCDAG.expand(program, instance)
    cdag = CDAG.expand(program, instance)
    index = reference.index
    assert cdag.vertices == index.vertices
    assert cdag.ids == index.ids
    assert cdag.preds == index.preds
    assert cdag.succ == _successors(reference.graph, index.ids, index.vertices)
    assert cdag.compute == index.compute
    assert cdag.is_input == index.is_input
    assert cdag.topological == index.topological
    assert cdag.topological_order() == list(nx.topological_sort(reference.graph))
    assert cdag.compute_topological == index.compute_topological
    assert cdag.inputs == reference.inputs
    assert cdag.flops == reference.flops
    assert cdag.extents == reference.extents


@pytest.mark.parametrize("name, program, instance", CASES[::7], ids=[case[0] for case in CASES[::7]])
def test_graph_property_rebuilds_the_reference_graph(name, program, instance):
    """``CDAG.graph`` has the reference graph's nodes, kinds, edges and
    operand orders."""
    reference = ReferenceCDAG.expand(program, instance).graph
    graph = CDAG.expand(program, instance).graph
    assert list(graph.nodes(data="kind")) == list(reference.nodes(data="kind"))
    assert [list(adjacency) for adjacency in graph.pred.values()] == [
        list(adjacency) for adjacency in reference.pred.values()
    ]
    assert set(graph.edges) == set(reference.edges)


class TestConstructor:
    """The constructor follows the rules of a ``DiGraph`` fed the same calls."""

    def test_repeated_vertex_keeps_its_id_and_takes_the_later_kind(self):
        a, b = ("A", (0,)), ("S", (0,))
        cdag = CDAG(None, {}, nodes=[(a, "input"), (b, "input"), (a, "statement")], edges=[])
        assert cdag.vertices == (a, b)
        assert cdag.compute == (0,)
        assert cdag.is_input == bytearray([0, 1])

    def test_edge_endpoints_not_among_the_nodes_are_inputs_with_new_ids(self):
        s, x = ("S", (0,)), ("X", (1,))
        cdag = CDAG(None, {}, nodes=[(s, "statement")], edges=[(x, s)])
        assert cdag.vertices == (s, x)
        assert cdag.preds == ((1,), ())
        assert cdag.is_input == bytearray([0, 1])
        assert cdag.inputs == set()  # only vertices declared "input"

    def test_repeated_edges_are_dropped_in_first_insertion_order(self):
        a, b, s, t = ("A", (0,)), ("B", (0,)), ("S", (0,)), ("S", (1,))
        nodes = [(a, "input"), (b, "input"), (s, "statement"), (t, "statement")]
        edges = [(b, t), (a, s), (b, s), (a, t), (b, t), (b, s)]
        cdag = CDAG(None, {}, nodes=nodes, edges=edges)
        assert cdag.preds == ((), (), (0, 1), (1, 0))
        assert cdag.succ == ((2, 3), (3, 2), (), ())
        assert cdag.topological == (0, 1, 3, 2)

    def test_a_cycle_raises_value_error(self):
        s, t = ("S", (0,)), ("S", (1,))
        cdag = CDAG(None, {}, nodes=[(s, "statement"), (t, "statement")], edges=[(s, t), (t, s)])
        with pytest.raises(ValueError, match="cycle"):
            cdag.topological
