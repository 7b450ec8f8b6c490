"""The integer subspace arithmetic and closure against the ``Fraction`` oracle.

``reference_lattice`` holds the ``Fraction`` sum, intersection and worklist
closure that the integer canonical form replaced.  Element sets and
``changed`` flags must match it exactly, on random subspace families, on a
closure that blows past ``max_elements``, and on the kernel lattices of every
PolyBench statement.
"""

from __future__ import annotations

import random

import pytest
from reference_lattice import (
    reference_closure,
    reference_intersection,
    reference_span,
    reference_sum,
)

from repro.core.brascamp_lieb import rank_constraints
from repro.core.paths import genpaths
from repro.ir import DFG
from repro.linalg import Subspace, SubspaceLattice, subspace_closure
from repro.polybench import get_kernel, kernel_names
from repro.sets import memo


def _bases(lattice: SubspaceLattice) -> frozenset:
    return frozenset(element.basis for element in lattice.elements)


def _close_both(dim, kernels, max_elements=256):
    """Add ``kernels`` one by one to both lattices; compare after every step."""
    lattice = SubspaceLattice(dim)
    expected: frozenset = frozenset()
    for kernel in kernels:
        lattice, changed = subspace_closure(lattice, kernel, max_elements=max_elements)
        expected, expected_changed = reference_closure(dim, expected, kernel.basis, max_elements)
        assert changed == expected_changed, (dim, kernel)
        assert _bases(lattice) == expected, (dim, kernel)
    return lattice


def _random_subspace(rng: random.Random, dim: int) -> Subspace:
    vectors = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
    if rng.random() < 0.5:
        # Mostly coordinate-like vectors, so comparable pairs come up often.
        for vector in vectors:
            for i in range(dim):
                if rng.random() < 0.5:
                    vector[i] = 0
    return Subspace(dim, vectors)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_sum_and_intersection_match_the_oracle(dim):
    rng = random.Random(1000 + dim)
    for _ in range(150):
        a, b = _random_subspace(rng, dim), _random_subspace(rng, dim)
        assert a.basis == reference_span(a.rows, dim)
        total = a.sum(b)
        meet = a.intersection(b)
        assert total.basis == reference_sum(a.basis, b.basis, dim)
        assert meet.basis == reference_intersection(a.basis, b.basis, dim)
        assert a.sum_dim(b) == total.dim == b.sum_dim(a)
        assert a.projection_rank(b) == a.dim - meet.dim


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_random_families_match_the_oracle(dim):
    rng = random.Random(2000 + dim)
    for case in range(12):
        memo.clear_all()
        kernels = [_random_subspace(rng, dim) for _ in range(rng.randint(1, 5))]
        # Small caps make some of the random families blow up too.
        _close_both(dim, kernels, max_elements=rng.choice([8, 32, 256]))


def test_four_lines_in_general_position_blow_up():
    """The lattice generated by four lines in general position in Q^3 is
    infinite, so adding the fourth line passes ``max_elements``: the call
    returns the lattice it was given, unchanged."""
    memo.clear_all()
    lines = [Subspace.span([v]) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    lattice = _close_both(3, lines)
    fourth = Subspace.span([(1, 1, 1)])
    result, changed = subspace_closure(lattice, fourth)
    assert not changed and result is lattice
    expected, expected_changed = reference_closure(3, _bases(lattice), fourth.basis)
    assert not expected_changed and expected == _bases(lattice)
    # The verdict is memoised and repeats.
    assert subspace_closure(lattice, fourth) == (lattice, False)


@pytest.mark.parametrize("name", kernel_names())
def test_polybench_kernel_lattices_match_the_oracle(name):
    """Every statement's path kernels, closed in path order as the K-partition
    search does, give the oracle's lattices and rank constraints."""
    memo.clear_all()
    program = get_kernel(name).program
    dfg = DFG.from_program(program)
    for statement in program.statements:
        kernels = [path.kernel() for path in genpaths(dfg, statement)]
        kernels = [kernel for kernel in kernels if not kernel.is_zero()]
        if not kernels:
            continue
        dim = program.statement(statement).space.dim
        lattice = _close_both(dim, kernels)
        for (coeffs, rhs), element in zip(
            rank_constraints(kernels, lattice), lattice.nontrivial_elements()
        ):
            assert rhs == element.dim
            assert coeffs == [
                element.dim - len(reference_intersection(element.basis, k.basis, dim))
                for k in kernels
            ]
