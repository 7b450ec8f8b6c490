"""Native multivariate polynomials over ``Fraction`` for closed-form counting.

The counting recursion of :mod:`repro.sets.counting` repeatedly sums a
polynomial weight over one dimension between two affine bounds.  Routing
every such sum through :func:`sympy.summation` re-derives the same Faulhaber
closed forms symbolically on every call, and profiling shows that work — not
the set algebra — dominating a cold derivation.  This module provides the
exact-arithmetic replacement: a canonical dict-of-monomials polynomial with
rational coefficients, plus the precomputed Bernoulli/Faulhaber coefficient
tables that turn ``sum_{x=L}^{U} p`` into a handful of dict merges.

Summation convention
--------------------

sympy evaluates ``Sum(f, (x, a, b))`` by the Karr / polynomial-identity
convention: the closed form ``F(b) - F(a-1)`` is applied unconditionally,
so an "empty" range ``b = a - 1`` contributes 0 and a crossed range
``b < a - 1`` contributes ``-sum_{x=b+1}^{a-1} f`` — for *numeric* limits
just as for symbolic ones.  :meth:`Poly.sum_over` implements exactly that
identity (``S_k(U+1) - S_k(L)`` with ``S_k(n) = sum_{x=0}^{n-1} x^k``), so
the native engine agrees with ``sympy.summation`` on every input, including
the negative-length ranges the large-parameter regime leans on.

:meth:`Poly.to_sympy` converts once, at the end of a count, through the
shared :func:`sym` symbol table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping

import sympy

from .affine import LinExpr

#: A monomial: name/exponent pairs, sorted by name, exponents >= 1.
#: The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]


@lru_cache(maxsize=None)
def sym(name: str) -> sympy.Symbol:
    """The shared sympy symbol for a parameter or dimension name.

    Symbols are integer but deliberately *not* marked positive: counting
    bounds (and loop-parametrisation offsets) may be negative, and sympy's
    concrete summation rejects inconsistent assumptions on its dummy index.
    The table is module-level and memoised — the innermost counting
    recursion asks for the same handful of names millions of times.
    """
    return sympy.Symbol(name, integer=True)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """The n-th Bernoulli number with the ``B_1 = -1/2`` convention."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += comb(n + 1, j) * bernoulli_number(j)
    return -total / (n + 1)


@lru_cache(maxsize=None)
def faulhaber_coefficients(k: int) -> tuple[Fraction, ...]:
    """Coefficients ``(c_1, ..., c_{k+1})`` of ``S_k(n) = sum_{x=0}^{n-1} x^k``.

    ``S_k(n) = sum_i c_i * n^i`` with ``c_i = C(k+1, k+1-i) * B_{k+1-i} / (k+1)``
    (Faulhaber's formula via Bernoulli numbers; no constant term).  Then
    ``sum_{x=L}^{U} x^k = S_k(U+1) - S_k(L)`` as a polynomial identity —
    sympy's summation convention on every range, empty and crossed included.
    """
    if k < 0:
        raise ValueError("Faulhaber tables need a non-negative exponent")
    return tuple(
        Fraction(comb(k + 1, k + 1 - i)) * bernoulli_number(k + 1 - i) / (k + 1)
        for i in range(1, k + 2)
    )


def _mono_mul(left: Monomial, right: Monomial) -> Monomial:
    if not left:
        return right
    if not right:
        return left
    merged = dict(left)
    for name, exponent in right:
        merged[name] = merged.get(name, 0) + exponent
    return tuple(sorted(merged.items()))


class Poly:
    """A multivariate polynomial with :class:`Fraction` coefficients.

    Canonical form: ``terms`` maps sorted name/exponent monomials to non-zero
    rational coefficients, so structural equality is mathematical equality
    and every operation stays exact.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for monomial, value in terms.items():
                coeff = Fraction(value)
                if coeff != 0:
                    cleaned[monomial] = coeff
        self.terms: dict[Monomial, Fraction] = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): 1})

    @classmethod
    def constant(cls, value: object) -> "Poly":
        return cls({(): Fraction(value)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    @classmethod
    def from_lin(cls, expr: LinExpr) -> "Poly":
        """Lift an affine :class:`LinExpr` into the polynomial ring."""
        terms: dict[Monomial, Fraction] = {
            ((name, 1),): coeff for name, coeff in expr.coeffs.items()
        }
        if expr.const != 0:
            terms[()] = expr.const
        return cls(terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def names(self) -> set[str]:
        return {name for monomial in self.terms for name, _ in monomial}

    def degree(self, name: str) -> int:
        """Largest exponent of ``name`` (0 when absent)."""
        best = 0
        for monomial in self.terms:
            for mono_name, exponent in monomial:
                if mono_name == name and exponent > best:
                    best = exponent
        return best

    def total_degree(self) -> int:
        return max(
            (sum(e for _, e in monomial) for monomial in self.terms), default=0
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _as_poly(other)
        terms = dict(self.terms)
        for monomial, coeff in other.terms.items():
            terms[monomial] = terms.get(monomial, Fraction(0)) + coeff
        return Poly(terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        if not isinstance(other, Poly):
            factor = Fraction(other)
            return Poly({m: c * factor for m, c in self.terms.items()})
        terms: dict[Monomial, Fraction] = {}
        for left_mono, left_coeff in self.terms.items():
            for right_mono, right_coeff in other.terms.items():
                monomial = _mono_mul(left_mono, right_mono)
                terms[monomial] = (
                    terms.get(monomial, Fraction(0)) + left_coeff * right_coeff
                )
        return Poly(terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("polynomials only take non-negative powers")
        result = Poly.one()
        base = self
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = result * base
            remaining >>= 1
            if remaining:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self.terms == _as_poly(other).terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        parts = []
        for monomial in sorted(self.terms):
            factors = [
                name if exponent == 1 else f"{name}^{exponent}"
                for name, exponent in monomial
            ]
            coeff = self.terms[monomial]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return "Poly(" + " + ".join(parts) + ")"

    # -- substitution / evaluation -----------------------------------------

    def substitute(self, name: str, replacement: "Poly | LinExpr") -> "Poly":
        """Replace ``name`` by a polynomial (or affine) expression, exactly."""
        if isinstance(replacement, LinExpr):
            replacement = Poly.from_lin(replacement)
        powers: dict[int, Poly] = {0: Poly.one(), 1: replacement}

        def power(exponent: int) -> Poly:
            cached = powers.get(exponent)
            if cached is None:
                cached = powers[exponent] = power(exponent - 1) * replacement
            return cached

        result = Poly.zero()
        for monomial, coeff in self.terms.items():
            rest = tuple(pair for pair in monomial if pair[0] != name)
            exponent = next((e for n, e in monomial if n == name), 0)
            contribution = Poly({rest: coeff})
            if exponent:
                contribution = contribution * power(exponent)
            result = result + contribution
        return result

    def evaluate(self, values: Mapping[str, object]) -> Fraction:
        """Numeric value at a point; every name must be bound."""
        total = Fraction(0)
        for monomial, coeff in self.terms.items():
            product = coeff
            for name, exponent in monomial:
                if name not in values:
                    raise KeyError(f"no value supplied for {name!r}")
                product *= Fraction(values[name]) ** exponent
            total += product
        return total

    # -- the closed-form summation -----------------------------------------

    def sum_over(self, name: str, lower: LinExpr, upper: LinExpr) -> "Poly":
        """Exact ``sum_{name=lower}^{upper} self`` as a polynomial.

        ``lower``/``upper`` are affine bounds over *other* names (symbolic
        parameters, outer dimensions, or constants).  Implements the Karr
        polynomial identity ``S_k(U+1) - S_k(L)`` per power of ``name``,
        matching ``sympy.summation`` on every range shape — empty
        (``U = L-1``) contributes 0, crossed ranges contribute negatively.
        """
        if name in lower.names() or name in upper.names():
            raise ValueError(f"summation bounds may not involve {name!r}")
        upper_base = Poly.from_lin(upper + 1)
        lower_base = Poly.from_lin(lower)
        upper_powers: dict[int, Poly] = {0: Poly.one()}
        lower_powers: dict[int, Poly] = {0: Poly.one()}

        def power(cache: dict[int, Poly], base: Poly, exponent: int) -> Poly:
            cached = cache.get(exponent)
            if cached is None:
                cached = cache[exponent] = power(cache, base, exponent - 1) * base
            return cached

        result = Poly.zero()
        for monomial, coeff in self.terms.items():
            rest = tuple(pair for pair in monomial if pair[0] != name)
            exponent = next((e for n, e in monomial if n == name), 0)
            closed = Poly.zero()
            for index, factor in enumerate(faulhaber_coefficients(exponent), start=1):
                if factor == 0:
                    continue
                difference = power(upper_powers, upper_base, index) - power(
                    lower_powers, lower_base, index
                )
                closed = closed + difference * factor
            result = result + Poly({rest: coeff}) * closed
        return result

    # -- conversion --------------------------------------------------------

    def to_sympy(self) -> sympy.Expr:
        """Lossless conversion through the shared :func:`sym` symbol table."""
        if not self.terms:
            return sympy.Integer(0)
        addends = []
        for monomial, coeff in self.terms.items():
            factor: sympy.Expr = sympy.Rational(coeff.numerator, coeff.denominator)
            for name, exponent in monomial:
                factor *= sym(name) ** exponent
            addends.append(factor)
        return sympy.Add(*addends)


def _as_poly(value: "Poly | int | Fraction") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)
