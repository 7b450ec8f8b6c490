"""Unit and property tests for subspaces and the subgroup lattice closure."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lattice import reference_span

from repro.linalg import Subspace, SubspaceLattice, build_lattice, subspace_closure


def span(*vectors):
    return Subspace.span(list(vectors))


class TestSubspace:
    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3

    def test_canonical_equality(self):
        a = span((1, 0, 0), (0, 1, 0))
        b = span((1, 1, 0), (1, -1, 0))
        assert a == b
        assert hash(a) == hash(b)

    def test_scaled_spans_share_one_canonical_form(self):
        spans = [span((2, 4)), span((1, 2)), span((Fraction(1, 2), 1))]
        assert spans[0] == spans[1] == spans[2]
        assert len({hash(s) for s in spans}) == 1
        assert len({s.content_key() for s in spans}) == 1
        assert spans[0].rows == ((1, 2),)

    def test_rows_are_primitive_and_basis_is_the_fraction_rref(self):
        plane = span((0, -2, 4, 6), (3, 0, 0, Fraction(3, 2)))
        assert plane.rows == ((2, 0, 0, 1), (0, 1, -2, -3))
        assert plane.basis == reference_span([(0, -2, 4, 6), (3, 0, 0, Fraction(3, 2))], 4)
        assert plane.basis == ((1, 0, 0, Fraction(1, 2)), (0, 1, -2, -3))
        assert all(type(x) is Fraction for row in plane.basis for x in row)

    def test_annihilator_is_the_orthogonal_complement(self):
        line = span((1, 2, 3))
        assert line.annihilator == ((3, 0, -1), (0, 3, -2))
        assert Subspace.full(3).annihilator == ()
        assert Subspace.zero(2).annihilator == ((1, 0), (0, 1))

    def test_contains_vector(self):
        plane = span((1, 0, 0), (0, 1, 0))
        assert plane.contains_vector((3, -2, 0))
        assert not plane.contains_vector((0, 0, 1))

    def test_contains_subspace(self):
        plane = span((1, 0, 0), (0, 1, 0))
        line = span((1, 1, 0))
        assert plane.contains(line)
        assert not line.contains(plane)

    def test_sum_of_lines_is_plane(self):
        line_x = span((1, 0, 0))
        line_y = span((0, 1, 0))
        assert line_x.sum(line_y) == span((1, 0, 0), (0, 1, 0))

    def test_intersection_of_planes_is_line(self):
        xy = span((1, 0, 0), (0, 1, 0))
        yz = span((0, 1, 0), (0, 0, 1))
        assert xy.intersection(yz) == span((0, 1, 0))

    def test_intersection_of_skew_lines_is_zero(self):
        assert span((1, 0, 0)).intersection(span((0, 1, 0))).is_zero()

    def test_projection_rank(self):
        # phi = projection with kernel e3; rank of phi(plane xz) should be 1.
        kernel = span((0, 0, 1))
        xz = span((1, 0, 0), (0, 0, 1))
        assert xz.projection_rank(kernel) == 1
        full = Subspace.full(3)
        assert full.projection_rank(kernel) == 2

    def test_ambient_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            span((1, 0)).sum(span((1, 0, 0)))


class TestLattice:
    def test_closure_with_orthogonal_kernels(self):
        lattice = SubspaceLattice(3)
        for vec in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            lattice, changed = subspace_closure(lattice, span(vec))
            assert changed
        dims = sorted(e.dim for e in lattice.nontrivial_elements())
        # 3 lines, 3 planes (pairwise sums), and the full space.
        assert dims == [1, 1, 1, 2, 2, 2, 3]

    def test_nontrivial_elements_sort_by_dimension_then_fraction_basis(self):
        # Integer rows order differently from the Fraction bases here
        # ((2, 0, 1) < (3, 0, 1) but 1/2 > 1/3): the Fraction order wins.
        lattice, _ = build_lattice(3, [span((2, 0, 1)), span((3, 0, 1)), span((0, 1, 0))])
        ordered = lattice.nontrivial_elements()
        assert [e.basis for e in ordered] == sorted(
            (e.basis for e in ordered), key=lambda b: (len(b), b)
        )
        assert [e.basis for e in ordered[:3]] == [
            ((0, 1, 0),),
            ((1, 0, Fraction(1, 3)),),
            ((1, 0, Fraction(1, 2)),),
        ]

    def test_closure_is_idempotent(self):
        lattice, accepted = build_lattice(3, [span((1, 0, 0)), span((0, 1, 0))])
        size = len(lattice)
        lattice2, changed = subspace_closure(lattice, span((1, 0, 0)))
        assert not changed
        assert len(lattice2) == size
        assert len(accepted) == 2

    def test_closure_contains_sums_and_intersections(self):
        lattice, _ = build_lattice(3, [span((1, 0, 0), (0, 1, 0)), span((0, 1, 0), (0, 0, 1))])
        assert span((0, 1, 0)) in lattice  # the intersection
        assert Subspace.full(3) in lattice  # the sum

    def test_timeout_returns_original(self):
        # A cold cache is required: a memoised converged closure is returned
        # even under a zero budget (known answers beat the degraded fallback).
        from repro.sets import memo

        memo.clear_all()
        lattice = SubspaceLattice(3, [span((1, 0, 0))])
        result, changed = subspace_closure(lattice, span((0, 1, 0)), timeout_seconds=0.0)
        assert not changed
        assert result is lattice

    def test_timeout_result_is_not_cached(self):
        from repro.sets import memo

        memo.clear_all()
        lattice = SubspaceLattice(3, [span((1, 0, 0))])
        kernel = span((0, 1, 0))
        _, changed = subspace_closure(lattice, kernel, timeout_seconds=0.0)
        assert not changed
        # The timed-out state must not have been memoised: with a real budget
        # the same closure converges.
        result, changed = subspace_closure(lattice, kernel)
        assert changed
        assert kernel in result

    def test_converged_closure_is_memoised(self):
        from repro.sets import memo

        memo.clear_all()
        lattice = SubspaceLattice(3, [span((1, 0, 0))])
        kernel = span((0, 1, 0))
        first, changed_first = subspace_closure(lattice, kernel)
        second, changed_second = subspace_closure(lattice, kernel)
        assert changed_first and changed_second
        assert first.elements == second.elements
        # The hit must rebuild a fresh lattice (lattices are mutable).
        assert first is not second


vectors3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: any(v)
)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_sum_contains_both_operands(v1, v2):
    a, b = span(v1), span(v2)
    total = a.sum(b)
    assert total.contains(a) and total.contains(b)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_intersection_contained_in_both(v1, v2):
    a, b = span(v1), span(v2)
    meet = a.intersection(b)
    assert a.contains(meet) and b.contains(meet)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_modularity_dimension_formula(v1, v2):
    a, b = span(v1), span(v2)
    assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim
