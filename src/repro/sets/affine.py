"""Affine expressions over named dimensions and parameters.

A :class:`LinExpr` is ``sum_i c_i * name_i + const`` with rational
coefficients.  It is the atom of every constraint, access function and
dependence relation in the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

import sympy


class LinExpr:
    """An affine (degree-one) expression with rational coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, object] | None = None, const: object = 0):
        cleaned: dict[str, Fraction] = {}
        if coeffs:
            for name, value in coeffs.items():
                if type(value) is not Fraction:
                    value = Fraction(value)
                if value:
                    cleaned[name] = value
        self.coeffs: dict[str, Fraction] = cleaned
        self.const: Fraction = const if type(const) is Fraction else Fraction(const)

    @classmethod
    def _trusted(cls, coeffs: dict[str, Fraction], const: Fraction) -> "LinExpr":
        """Wrap ``coeffs`` and ``const`` as they are: the caller guarantees that
        every coefficient is a non-zero ``Fraction`` and ``const`` a ``Fraction``."""
        expr = object.__new__(cls)
        expr.coeffs = coeffs
        expr.const = const
        return expr

    # -- constructors ------------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return cls({name: 1})

    @classmethod
    def constant(cls, value: object) -> "LinExpr":
        """A constant expression."""
        return cls({}, value)

    # -- queries -----------------------------------------------------------

    def names(self) -> set[str]:
        """Names with non-zero coefficient."""
        return set(self.coeffs)

    def coeff(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 when absent)."""
        return self.coeffs.get(name, Fraction(0))

    def is_constant(self) -> bool:
        """True when no variable appears."""
        return not self.coeffs

    def depends_on(self, names: Iterable[str]) -> bool:
        """True when any of ``names`` has a non-zero coefficient."""
        return any(name in self.coeffs for name in names)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LinExpr | int | Fraction") -> "LinExpr":
        other = _as_expr(other)
        coeffs = dict(self.coeffs)
        for name, value in other.coeffs.items():
            _accumulate(coeffs, name, value)
        return LinExpr._trusted(coeffs, self.const + other.const)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr._trusted({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LinExpr | int | Fraction") -> "LinExpr":
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) - self

    def __mul__(self, scalar: object) -> "LinExpr":
        factor = scalar if type(scalar) is Fraction else Fraction(scalar)
        if not factor:
            return LinExpr._trusted({}, _ZERO)
        return LinExpr._trusted(
            {k: v * factor for k, v in self.coeffs.items()}, self.const * factor
        )

    def __rmul__(self, scalar: object) -> "LinExpr":
        return self.__mul__(scalar)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LinExpr, int, Fraction)):
            return NotImplemented
        other = _as_expr(other)
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        # A constant expression equals its constant, so it must hash like it.
        if not self.coeffs:
            return hash(self.const)
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, mapping: Mapping[str, "LinExpr | int | Fraction"]) -> "LinExpr":
        """Replace each named variable by the given affine expression.

        One pass over one dict: a name already present is updated in place,
        one that cancels is deleted and a new one is appended, which is the
        coefficient order of summing the substituted terms left to right.
        """
        coeffs: dict[str, Fraction] = {}
        const = self.const
        for name, coeff in self.coeffs.items():
            if name not in mapping:
                _accumulate(coeffs, name, coeff)
                continue
            replacement = _as_expr(mapping[name])
            for other, value in replacement.coeffs.items():
                _accumulate(coeffs, other, value * coeff)
            if replacement.const:
                const = const + replacement.const * coeff
        return LinExpr._trusted(coeffs, const)

    def evaluate(self, values: Mapping[str, object]) -> Fraction:
        """Numeric value of the expression at a point; all names must be bound."""
        total = self.const
        for name, coeff in self.coeffs.items():
            if name not in values:
                raise KeyError(f"no value supplied for {name!r}")
            total += coeff * Fraction(values[name])
        return total

    def to_sympy(self, symbols: Mapping[str, sympy.Symbol] | None = None) -> sympy.Expr:
        """Convert to a sympy expression (creating integer symbols as needed)."""
        symbols = symbols or {}
        expr: sympy.Expr = sympy.Rational(self.const.numerator, self.const.denominator)
        for name, coeff in self.coeffs.items():
            symbol = symbols.get(name, sympy.Symbol(name, integer=True))
            expr += sympy.Rational(coeff.numerator, coeff.denominator) * symbol
        return expr

    # -- normalisation ------------------------------------------------------

    def scaled_to_integers(self) -> "LinExpr":
        """Multiply by the positive rational that makes all coefficients integral
        and divides out the common factor.

        Returns ``self`` (not a copy) when the expression is already in
        canonical form, so callers can cheaply detect idempotence.
        """
        values = [*self.coeffs.values(), self.const]
        denominator = 1
        for value in values:
            if value.denominator != 1:
                denominator = denominator * value.denominator // gcd(denominator, value.denominator)
        common = gcd(*[value.numerator * (denominator // value.denominator) for value in values])
        if denominator == 1 and common <= 1:
            return self
        return self * Fraction(denominator, common)

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            coeff = self.coeffs[name]
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = Fraction(0)


def _accumulate(coeffs: dict[str, Fraction], name: str, value: Fraction) -> None:
    """``coeffs[name] += value`` in place, deleting a coefficient that cancels."""
    total = coeffs.get(name)
    if total is None:
        coeffs[name] = value
        return
    total += value
    if total:
        coeffs[name] = total
    else:
        del coeffs[name]


def _as_expr(value: "LinExpr | int | Fraction") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr({}, value)
