"""Reference ``Fraction`` implementations, kept as oracles.

The ``Fraction``-rebuilding ``LinExpr`` arithmetic:

:class:`repro.sets.LinExpr` keeps coefficients that are already ``Fraction``
objects, builds the results of ``+``, ``-``, ``*`` and negation without
re-validating them, and substitutes in one pass over a single dict.  This
module is the arithmetic it replaced: every operation rebuilds each
coefficient with ``Fraction(value)`` and drops zeros in the constructor, and
``substitute`` adds one freshly built expression per term.  Values *and* the
insertion order of ``coeffs`` must agree with it, because constraint order
and FM pair order follow dict order.

The ``Fraction`` Fourier-Motzkin pair loop: :func:`reference_fm_eliminate`
splits the normalised constraints into lower and upper bounds as ``LinExpr``
pairs and combines every pair in rational arithmetic.  The integer pair loop
in :func:`repro.sets.fourier_motzkin.eliminate_variable` must return the same
constraints (same keys) in the same order.

The recursive ``Fraction`` point enumeration:
:func:`reference_enumerate_points` assigns dimensions one at a time in
``BasicSet._enumeration_order``, recomputes each dimension's bounds from every
constraint whose other dimensions are already fixed, and tests each complete
point against all constraints.  The integer loop in
:meth:`repro.sets.BasicSet.enumerate_points` must return the same points in
the same order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from repro.sets import EQ, GE, Constraint, LinExpr


class ReferenceLinExpr:
    """``sum_i c_i * name_i + const``, rebuilt from scratch by every operation."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        cleaned: dict[str, Fraction] = {}
        if coeffs:
            for name, value in coeffs.items():
                frac = Fraction(value)
                if frac != 0:
                    cleaned[name] = frac
        self.coeffs: dict[str, Fraction] = cleaned
        self.const: Fraction = Fraction(const)

    def __add__(self, other):
        other = _as_reference(other)
        coeffs = dict(self.coeffs)
        for name, value in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + value
        return ReferenceLinExpr(coeffs, self.const + other.const)

    def __neg__(self):
        return ReferenceLinExpr({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-_as_reference(other))

    def __mul__(self, scalar):
        factor = Fraction(scalar)
        return ReferenceLinExpr({k: v * factor for k, v in self.coeffs.items()}, self.const * factor)

    def substitute(self, mapping):
        result = ReferenceLinExpr({}, self.const)
        for name, coeff in self.coeffs.items():
            if name in mapping:
                result = result + _as_reference(mapping[name]) * coeff
            else:
                result = result + ReferenceLinExpr({name: coeff})
        return result

    def scaled_to_integers(self):
        values = list(self.coeffs.values()) + [self.const]
        denominators = 1
        for value in values:
            denominators = denominators * value.denominator // gcd(denominators, value.denominator)
        numerators = [abs(int(v * denominators)) for v in values if v != 0]
        common = 0
        for value in numerators:
            common = gcd(common, value)
        if denominators == 1 and common <= 1:
            return self
        scale = Fraction(denominators, common) if common > 1 else Fraction(denominators)
        return self * scale


def _as_reference(value) -> ReferenceLinExpr:
    if isinstance(value, ReferenceLinExpr):
        return value
    return ReferenceLinExpr({}, value)


def reference_fm_eliminate(constraints, name) -> list[Constraint]:
    """Fourier-Motzkin elimination of ``name`` by the ``Fraction`` pair loop.

    Covers the combination branch only: a system with a unit-coefficient
    equality on ``name`` (which ``eliminate_variable`` solves by
    substitution) is rejected.
    """
    constraints = [c.normalized() for c in constraints]
    others: list[Constraint] = []
    lower: list[tuple[Fraction, LinExpr]] = []
    upper: list[tuple[Fraction, LinExpr]] = []
    for constraint in constraints:
        coeff = constraint.expr.coeff(name)
        if coeff == 0:
            others.append(constraint)
            continue
        if constraint.kind == EQ and abs(coeff) == 1:
            raise ValueError(f"unit equality on {name!r}: the substitution branch")
        rest = LinExpr(
            {n: c for n, c in constraint.expr.coeffs.items() if n != name},
            constraint.expr.const,
        )
        pairs = [(coeff, rest), (-coeff, -rest)] if constraint.kind == EQ else [(coeff, rest)]
        for pair_coeff, pair_rest in pairs:
            (lower if pair_coeff > 0 else upper).append((pair_coeff, pair_rest))
    combined = []
    for lo_coeff, lo_rest in lower:
        for up_coeff, up_rest in upper:
            # lo: a*x + r1 >= 0 (a>0)  =>  x >= -r1/a
            # up: b*x + r2 >= 0 (b<0)  =>  x <= -r2/b = r2/|b|
            # combination: -r1/a <= r2/|b|  =>  |b|*r1 + a*r2 >= 0
            combined.append(Constraint(lo_rest * (-up_coeff) + up_rest * lo_coeff, GE))
    return [c.normalized() for c in others + combined if not c.is_trivially_true()]


def reference_enumerate_points(basic_set, params, bound=2000) -> list[tuple[int, ...]]:
    """All integer points of ``basic_set`` for concrete ``params``, by the
    recursive ``Fraction`` loop with a membership test at every leaf."""
    dims = basic_set.space.dims
    points: list[tuple[int, ...]] = []

    # Choose an assignment order in which each dimension is bounded by
    # previously assigned dimensions and parameters whenever possible.
    order = basic_set._enumeration_order()

    def recurse(assigned: dict[str, int]) -> None:
        if len(assigned) == len(dims):
            point = tuple(assigned[d] for d in dims)
            if basic_set.contains_point(point, params):
                points.append(point)
            return
        dim = order[len(assigned)]
        lo, hi = -bound, bound
        values = dict(params)
        values.update(assigned)
        for constraint in basic_set.constraints:
            coeff = constraint.expr.coeff(dim)
            if coeff == 0:
                continue
            others = constraint.expr.names() - {dim} - set(values)
            if others & set(dims):
                continue
            rest = LinExpr(
                {n: c for n, c in constraint.expr.coeffs.items() if n != dim},
                constraint.expr.const,
            ).evaluate(values)
            boundary = Fraction(-rest, coeff)
            if constraint.kind == EQ:
                lo = max(lo, _ceil(boundary))
                hi = min(hi, _floor(boundary))
            elif coeff > 0:
                lo = max(lo, _ceil(boundary))
            else:
                hi = min(hi, _floor(boundary))
        for value in range(lo, hi + 1):
            assigned[dim] = value
            recurse(assigned)
        assigned.pop(dim, None)

    recurse({})
    return points


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator
