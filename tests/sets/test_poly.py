"""Differential tests for the native polynomial engine (repro.sets.poly).

The native Faulhaber summation must agree with ``sympy.summation`` on every
input — symbolic, numeric, empty and crossed ranges alike — and the sympy
converters must be lossless on the rational-polynomial domain.  Random
polynomials (seeded and hypothesis-driven, degree <= 6) are summed over
random affine ranges and compared against the sympy reference expression.
:func:`poly_from_sympy` is the test-side inverse of :meth:`Poly.to_sympy`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import LinExpr, Poly, sym
from repro.sets.poly import Monomial, bernoulli_number, faulhaber_coefficients

VARS = ("x", "y", "N", "M")


class PolyConversionError(Exception):
    """A sympy expression is outside the rational-polynomial domain."""


def poly_from_sympy(expr: sympy.Expr) -> Poly:
    """Lossless inverse of :meth:`Poly.to_sympy` on the polynomial domain.

    Raises :class:`PolyConversionError` for anything that is not a
    polynomial with rational coefficients.
    """
    expr = sympy.sympify(expr)
    symbols = sorted(expr.free_symbols, key=lambda s: s.name)
    if not symbols:
        if not expr.is_Rational:
            raise PolyConversionError(f"non-rational constant {expr!r}")
        return Poly.constant(Fraction(expr.p, expr.q))
    try:
        spoly = sympy.Poly(expr, *symbols)
    except sympy.PolynomialError as error:
        raise PolyConversionError(f"not a polynomial: {expr!r}") from error
    terms: dict[Monomial, Fraction] = {}
    for exponents, coeff in spoly.terms():
        if not coeff.is_Rational:
            raise PolyConversionError(f"non-rational coefficient {coeff!r} in {expr!r}")
        monomial = tuple(
            sorted(
                (symbol.name, int(exponent))
                for symbol, exponent in zip(symbols, exponents)
                if exponent
            )
        )
        terms[monomial] = terms.get(monomial, Fraction(0)) + Fraction(coeff.p, coeff.q)
    return Poly(terms)


def random_poly(rng: random.Random, names=VARS, max_degree: int = 6) -> Poly:
    """A random multivariate polynomial with rational coefficients."""
    result = Poly.zero()
    for _ in range(rng.randint(1, 6)):
        monomial = {}
        budget = max_degree
        for name in rng.sample(names, rng.randint(0, len(names))):
            exponent = rng.randint(1, max(1, budget))
            budget -= exponent
            if exponent > 0:
                monomial[name] = exponent
            if budget <= 0:
                break
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        result = result + Poly({tuple(sorted(monomial.items())): coeff})
    return result


def random_affine(rng: random.Random, names=("N", "M")) -> LinExpr:
    """A random affine bound over parameters (possibly constant or negative)."""
    coeffs = {
        name: rng.randint(-3, 3)
        for name in rng.sample(names, rng.randint(0, len(names)))
    }
    return LinExpr(coeffs, rng.randint(-6, 6))


class TestBernoulliAndFaulhaber:
    def test_bernoulli_values(self):
        values = [bernoulli_number(n) for n in range(9)]
        assert values == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
            Fraction(-1, 30),
        ]

    def test_faulhaber_closed_forms(self):
        # S_k(n) = sum_{x=0}^{n-1} x^k against the textbook formulas.
        assert faulhaber_coefficients(0) == (Fraction(1),)
        assert faulhaber_coefficients(1) == (Fraction(-1, 2), Fraction(1, 2))
        assert faulhaber_coefficients(2) == (
            Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3),
        )

    def test_faulhaber_concrete_sums(self):
        for k in range(7):
            for n in range(12):
                closed = sum(
                    coeff * Fraction(n) ** power
                    for power, coeff in enumerate(faulhaber_coefficients(k), start=1)
                )
                assert closed == sum(Fraction(x) ** k for x in range(n)), (k, n)


class TestPolyAlgebra:
    def test_canonical_form_drops_zeros(self):
        p = Poly.var("x") - Poly.var("x")
        assert p.is_zero() and p == Poly.zero() and p == 0

    def test_arithmetic_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b = random_poly(rng), random_poly(rng)
            assert sympy.expand((a + b).to_sympy()) == sympy.expand(
                a.to_sympy() + b.to_sympy()
            )
            assert sympy.expand((a * b).to_sympy()) == sympy.expand(
                a.to_sympy() * b.to_sympy()
            )
            assert sympy.expand((a - b).to_sympy()) == sympy.expand(
                a.to_sympy() - b.to_sympy()
            )

    def test_pow_matches_repeated_multiplication(self):
        p = Poly.from_lin(LinExpr({"x": 2, "N": -1}, 3))
        assert p ** 0 == Poly.one()
        assert p ** 3 == p * p * p

    def test_substitute_affine(self):
        p = Poly.var("x") * Poly.var("x") + Poly.var("N")
        q = p.substitute("x", LinExpr({"N": 1}, -1))  # x -> N - 1
        n = sym("N")
        assert sympy.expand(q.to_sympy()) == sympy.expand((n - 1) ** 2 + n)

    def test_evaluate(self):
        p = Poly.from_lin(LinExpr({"x": 1}, 0)) ** 2 * Fraction(1, 2)
        assert p.evaluate({"x": 6}) == 18
        with pytest.raises(KeyError):
            p.evaluate({})

    def test_degree_and_names(self):
        p = Poly({(("N", 2), ("x", 3)): 1, (("x", 1),): 2})
        assert p.degree("x") == 3 and p.degree("N") == 2 and p.degree("z") == 0
        assert p.names() == {"N", "x"}
        assert p.total_degree() == 5


class TestConverters:
    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_poly(rng)
            assert poly_from_sympy(p.to_sympy()) == p

    def test_from_sympy_round_trip_through_expand(self):
        n, m = sym("N"), sym("M")
        expr = sympy.expand((n + m) ** 3 - sympy.Rational(5, 3) * n * m + 7)
        assert poly_from_sympy(expr).to_sympy().expand() == expr

    def test_constants(self):
        assert poly_from_sympy(sympy.Integer(0)) == Poly.zero()
        assert poly_from_sympy(sympy.Rational(3, 4)) == Poly.constant(Fraction(3, 4))

    def test_non_polynomial_declines(self):
        x = sym("x")
        for expr in (sympy.sqrt(x), sympy.sin(x), 1 / x, x ** sympy.Rational(1, 2)):
            with pytest.raises(PolyConversionError):
                poly_from_sympy(expr)

    def test_non_rational_coefficient_declines(self):
        x = sym("x")
        with pytest.raises(PolyConversionError):
            poly_from_sympy(sympy.pi * x)
        with pytest.raises(PolyConversionError):
            poly_from_sympy(sympy.pi + sympy.Integer(0))


def _sympy_sum(p: Poly, name: str, lower: LinExpr, upper: LinExpr) -> sympy.Expr:
    from repro.sets.counting import lin_to_sympy

    return sympy.expand(
        sympy.summation(p.to_sympy(), (sym(name), lin_to_sympy(lower), lin_to_sympy(upper)))
    )


class TestFaulhaberSummation:
    def test_unit_weight_rectangle(self):
        p = Poly.one()
        total = p.sum_over("x", LinExpr({}, 0), LinExpr({"N": 1}, -1))
        assert total.to_sympy().expand() == sym("N")

    def test_triangle_weight(self):
        # sum_{x=0}^{i} 1 then sum_{i=0}^{N-1} (i+1) = N(N+1)/2
        inner = Poly.one().sum_over("x", LinExpr({}, 0), LinExpr({"i": 1}, 0))
        outer = inner.sum_over("i", LinExpr({}, 0), LinExpr({"N": 1}, -1))
        n = sym("N")
        assert sympy.expand(outer.to_sympy() - n * (n + 1) / 2) == 0

    def test_empty_range_is_zero(self):
        p = Poly.var("x") ** 2
        lower = LinExpr({"N": 1}, 0)
        upper = LinExpr({"N": 1}, -1)  # U = L - 1
        assert p.sum_over("x", lower, upper).is_zero()

    def test_crossed_numeric_range_matches_sympy_convention(self):
        # sympy: Sum(x, (x, 5, 2)) == -7, Sum(x**2, (x, 10, 3)) == -271.
        assert Poly.var("x").sum_over(
            "x", LinExpr({}, 5), LinExpr({}, 2)
        ) == Poly.constant(-7)
        assert (Poly.var("x") ** 2).sum_over(
            "x", LinExpr({}, 10), LinExpr({}, 3)
        ) == Poly.constant(-271)

    def test_bounds_involving_summed_name_rejected(self):
        with pytest.raises(ValueError):
            Poly.one().sum_over("x", LinExpr({"x": 1}, 0), LinExpr({}, 5))

    def test_seeded_random_differential(self):
        """Random polynomials over random symbolic affine ranges vs sympy."""
        rng = random.Random(2024)
        for case in range(40):
            p = random_poly(rng, names=("x", "y", "N", "M"), max_degree=6)
            lower, upper = random_affine(rng), random_affine(rng)
            native = p.sum_over("x", lower, upper)
            assert native.to_sympy().expand() == _sympy_sum(p, "x", lower, upper), (
                case, p, lower, upper,
            )

    def test_seeded_numeric_cross_check(self):
        """Summed closed forms evaluate to the honest term-by-term sum."""
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng, names=("x", "N"), max_degree=5)
            lo, hi = rng.randint(-4, 2), rng.randint(3, 9)
            closed = p.sum_over("x", LinExpr({}, lo), LinExpr({}, hi))
            for n in (2, 7):
                direct = sum(
                    p.evaluate({"x": value, "N": n}) for value in range(lo, hi + 1)
                )
                assert closed.evaluate({"N": n}) == direct


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(0, 6),
    coeff_num=st.integers(-8, 8),
    coeff_den=st.integers(1, 6),
    lower_const=st.integers(-5, 5),
    lower_n=st.integers(-2, 2),
    upper_const=st.integers(-5, 5),
    upper_n=st.integers(-2, 2),
)
def test_hypothesis_single_power_sum_matches_sympy(
    degree, coeff_num, coeff_den, lower_const, lower_n, upper_const, upper_n
):
    """c * x^k * N summed over affine (possibly crossed/negative) ranges."""
    p = (
        Poly.var("x") ** degree
        * Poly.var("N")
        * Fraction(coeff_num, coeff_den)
    )
    lower = LinExpr({"N": lower_n} if lower_n else {}, lower_const)
    upper = LinExpr({"N": upper_n} if upper_n else {}, upper_const)
    native = p.sum_over("x", lower, upper)
    assert native.to_sympy().expand() == _sympy_sum(p, "x", lower, upper)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hypothesis_random_poly_sum_matches_sympy(seed):
    rng = random.Random(seed)
    p = random_poly(rng, max_degree=6)
    lower, upper = random_affine(rng), random_affine(rng)
    native = p.sum_over("x", lower, upper)
    assert native.to_sympy().expand() == _sympy_sum(p, "x", lower, upper)
