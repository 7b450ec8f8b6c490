"""Kernels of affine maps against the ``Fraction`` null-space oracle.

:meth:`repro.sets.AffineFunction.kernel` takes the orthogonal complement of
the row space of the map's linear part.  It must span exactly the textbook
null space of that linear part, for every dependence and every DFG-path
function the derivation sees, and satisfy A x = 0 and rank-nullity on
random matrices.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lattice import reference_span
from reference_linalg import nullspace, rref

from repro.core.paths import genpaths
from repro.fuzz.generator import PROFILES, random_program
from repro.ir import DFG
from repro.polybench import get_kernel, kernel_names
from repro.sets import AffineFunction, LinExpr, Space

FUZZ_CASES = [(profile, seed) for profile in sorted(PROFILES) for seed in range(8)]


def _linear_part(function: AffineFunction) -> list[list]:
    dims = function.domain_space.dims
    return [[expr.coeff(d) for d in dims] for expr in function.exprs]


def _assert_kernels_match_the_oracle(program) -> None:
    dfg = DFG.from_program(program)
    functions = [dep.function for dep in program.dependences]
    for statement in program.statements:
        functions += [path.function for path in genpaths(dfg, statement)]
    assert functions
    for function in functions:
        n = function.domain_space.dim
        expected = reference_span(nullspace(_linear_part(function), n), n)
        assert function.kernel().basis == expected, function


@pytest.mark.parametrize("name", kernel_names())
def test_polybench_kernels_match_the_oracle(name):
    _assert_kernels_match_the_oracle(get_kernel(name).program)


@pytest.mark.parametrize(("profile", "seed"), FUZZ_CASES)
def test_fuzz_programs_match_the_oracle(profile, seed):
    _assert_kernels_match_the_oracle(random_program(seed, profile))


def _function(rows) -> AffineFunction:
    space = Space("S", ("i", "j", "k"))
    exprs = [LinExpr(dict(zip(space.dims, row))) for row in rows]
    return AffineFunction(space, "A", exprs)


matrices = st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=0, max_size=4)


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_kernel_rows_are_annihilated(rows):
    for vector in _function(rows).kernel().rows:
        assert all(sum(a * x for a, x in zip(row, vector)) == 0 for row in rows)


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_kernel_dimension_is_rank_nullity(rows):
    _, pivots = rref(rows)
    assert _function(rows).kernel().dim == 3 - len(pivots)
