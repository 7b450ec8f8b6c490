"""Tests for affine expressions, constraint parsing and the ISL-like parser."""

from fractions import Fraction

import pytest

from repro.linalg import Subspace
from repro.sets import LinExpr, ParseError, parse_function, parse_set


class TestLinExpr:
    def test_var_and_constant(self):
        x = LinExpr.var("x")
        assert x.coeff("x") == 1
        assert LinExpr.constant(5).const == 5

    def test_arithmetic(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        expr = 2 * x + y - 3
        assert expr.coeff("x") == 2
        assert expr.coeff("y") == 1
        assert expr.const == -3

    def test_zero_coefficients_are_dropped(self):
        x = LinExpr.var("x")
        expr = x - x
        assert expr.is_constant()
        assert not expr.names()

    def test_substitute(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        expr = (2 * x + 1).substitute({"x": y - 1})
        assert expr == 2 * y - 1

    def test_evaluate(self):
        expr = 3 * LinExpr.var("i") + LinExpr.var("N") - 2
        assert expr.evaluate({"i": 4, "N": 10}) == 20

    def test_evaluate_missing_name_raises(self):
        with pytest.raises(KeyError):
            LinExpr.var("i").evaluate({})

    def test_scaled_to_integers(self):
        expr = LinExpr({"x": Fraction(1, 2), "y": Fraction(1, 3)})
        scaled = expr.scaled_to_integers()
        assert scaled.coeff("x") == 3
        assert scaled.coeff("y") == 2

    def test_scaled_removes_common_factor(self):
        expr = LinExpr({"x": 4, "y": 6}, 2)
        scaled = expr.scaled_to_integers()
        assert scaled.coeff("x") == 2
        assert scaled.coeff("y") == 3
        assert scaled.const == 1

    def test_equality_and_hash(self):
        assert LinExpr({"x": 1}, 2) == LinExpr.var("x") + 2
        assert hash(LinExpr({"x": 1})) == hash(LinExpr.var("x"))

    def test_constant_hashes_like_the_number_it_equals(self):
        assert LinExpr.constant(3) == 3
        assert 3 in {LinExpr.constant(3)}
        assert LinExpr.constant(3) in {3}
        assert Fraction(1, 2) in {LinExpr.constant(Fraction(1, 2))}


class TestParseSet:
    def test_simple_rectangle(self):
        d = parse_set("[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }")
        assert d.space.tuple_name == "S"
        assert d.space.dims == ("t", "i")
        assert d.space.params == ("M", "N")
        assert d.contains_point((0, 0), {"M": 2, "N": 2})
        assert not d.contains_point((2, 0), {"M": 2, "N": 2})

    def test_chained_comparison(self):
        d = parse_set("[N] -> { A[i] : 0 <= i < N }")
        points = d.enumerate_points({"N": 4})
        assert sorted(points) == [(0,), (1,), (2,), (3,)]

    def test_triangular_domain(self):
        d = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }")
        assert len(d.enumerate_points({"N": 4})) == 10

    def test_equality_constraint(self):
        d = parse_set("[N] -> { S[i, j] : 0 <= i < N and j = 2 }")
        points = d.enumerate_points({"N": 3})
        assert sorted(points) == [(0, 2), (1, 2), (2, 2)]

    def test_coefficient_syntax(self):
        d = parse_set("[N] -> { S[i] : 0 <= 2*i and 2*i < N }")
        assert sorted(d.enumerate_points({"N": 7})) == [(0,), (1,), (2,), (3,)]

    def test_no_constraints(self):
        d = parse_set("{ S[i] }")
        assert d.space.params == ()

    def test_malformed_raises(self):
        with pytest.raises(ParseError):
            parse_set("[N] -> S[i] : 0 <= i < N")
        with pytest.raises(ParseError):
            parse_set("[N] -> { S[i] : i ? N }")


class TestParseFunction:
    def test_uniform_dependence(self):
        f, dom = parse_function("[N] -> { S[i, j] -> S[i, j - 1] : 0 <= i < N and 1 <= j < N }")
        assert f.target_tuple == "S"
        assert f.is_translation()
        assert f.translation_vector() == (0, -1)
        assert dom.contains_point((0, 1), {"N": 3})
        assert not dom.contains_point((0, 0), {"N": 3})

    def test_broadcast_dependence(self):
        f, _ = parse_function("[M, N] -> { S[t, i] -> C[t] : 0 <= t < M and 0 <= i < N }")
        assert f.target_tuple == "C"
        assert f.target_arity == 1
        assert f.kernel().dim == 1

    def test_scalar_read_has_the_whole_space_as_kernel(self):
        """A read of a 0-dimensional array is a constant map, like ``A[0]``:
        every direction of the iteration space is in its kernel."""
        domain = " : 0 <= i < N and 0 <= j < N }"
        scalar, _ = parse_function("[N] -> { S[i, j] -> A[]" + domain)
        constant, _ = parse_function("[N] -> { S[i, j] -> A[0]" + domain)
        assert scalar.target_arity == 0
        assert scalar.kernel() == constant.kernel() == Subspace.full(2)

    def test_apply_to_point(self):
        f, _ = parse_function("[N] -> { S[i, j] -> A[j, i - 1] : 0 <= i < N }")
        assert f.apply_to_point((3, 5), {"N": 10}) == (5, 2)

    def test_requires_arrow(self):
        with pytest.raises(ParseError):
            parse_function("[N] -> { S[i, j] : 0 <= i < N }")
