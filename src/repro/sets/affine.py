"""Affine expressions over named dimensions and parameters.

A :class:`LinExpr` is ``sum_i c_i * name_i + const`` with Python ``int``
coefficients.  It is the atom of every constraint, access function and
dependence relation in the library, all of which are integer polyhedra.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational
from typing import Iterable, Mapping


class LinExpr:
    """An affine (degree-one) expression with integer coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, object] | None = None, const: object = 0):
        cleaned: dict[str, int] = {}
        if coeffs:
            for name, value in coeffs.items():
                value = as_integer(value)
                if value:
                    cleaned[name] = value
        self.coeffs: dict[str, int] = cleaned
        self.const: int = as_integer(const)

    @classmethod
    def _trusted(cls, coeffs: dict[str, int], const: int) -> "LinExpr":
        """Wrap ``coeffs`` and ``const`` as they are: the caller guarantees that
        every coefficient is a non-zero ``int`` and ``const`` an ``int``."""
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

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 when absent)."""
        return self.coeffs.get(name, 0)

    def is_constant(self) -> bool:
        """True when no variable appears."""
        return not self.coeffs

    def depends_on(self, names: Iterable[str]) -> bool:
        """True when any of ``names`` has a non-zero coefficient."""
        return any(name in self.coeffs for name in names)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LinExpr | int") -> "LinExpr":
        other = _as_expr(other)
        coeffs = dict(self.coeffs)
        for name, value in other.coeffs.items():
            _accumulate(coeffs, name, value)
        return LinExpr._trusted(coeffs, self.const + other.const)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr._trusted({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LinExpr | int") -> "LinExpr":
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) - self

    def __mul__(self, scalar: object) -> "LinExpr":
        factor = as_integer(scalar)
        if not factor:
            return LinExpr._trusted({}, 0)
        return LinExpr._trusted(
            {k: v * factor for k, v in self.coeffs.items()}, self.const * factor
        )

    def __rmul__(self, scalar: object) -> "LinExpr":
        return self.__mul__(scalar)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinExpr):
            return self.coeffs == other.coeffs and self.const == other.const
        if isinstance(other, Rational):
            return not self.coeffs and self.const == other
        return NotImplemented

    def __hash__(self) -> int:
        # A constant expression equals its constant, so it must hash like it.
        if not self.coeffs:
            return hash(self.const)
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, mapping: Mapping[str, "LinExpr | int"]) -> "LinExpr":
        """Replace each named variable by the given affine expression.

        One pass over one dict: a name already present is updated in place,
        one that cancels is deleted and a new one is appended, which is the
        coefficient order of summing the substituted terms left to right.
        """
        coeffs: dict[str, int] = {}
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

    def evaluate(self, values: Mapping[str, object]) -> int:
        """Value of the expression at a point; all names must be bound."""
        total = self.const
        for name, coeff in self.coeffs.items():
            if name not in values:
                raise KeyError(f"no value supplied for {name!r}")
            total += coeff * values[name]
        return total

    # -- normalisation ------------------------------------------------------

    def scaled_to_integers(self) -> "LinExpr":
        """Divide the coefficients and the constant by their common factor.

        Returns ``self`` (not a copy) when the expression is already in
        canonical form, so callers can cheaply detect idempotence.
        """
        common = gcd(*self.coeffs.values(), self.const)
        if common <= 1:
            return self
        return LinExpr._trusted(
            {k: v // common for k, v in self.coeffs.items()}, self.const // common
        )

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


def as_integer(value: object) -> int:
    """``value`` as an ``int``: an integral rational converts, anything else
    raises ``ValueError``."""
    if type(value) is int:
        return value
    if isinstance(value, Rational) and value.denominator == 1:
        return int(value.numerator)
    raise ValueError(f"expected an integer, got {value!r}")


def _accumulate(coeffs: dict[str, int], name: str, value: int) -> None:
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


def _as_expr(value: "LinExpr | int") -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr._trusted({}, as_integer(value))
