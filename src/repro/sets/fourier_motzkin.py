"""Fourier-Motzkin elimination and rational emptiness testing.

These are the work-horses behind projection, image computation and the
independence / interference tests of the IOLB algorithms.  All uses in
:mod:`repro.core` rely only on the *sound* direction of rational reasoning:

* a set that is rationally empty has no integer point (used to certify
  path independence and decomposition non-interference);
* the rational projection over-approximates the integer projection (used for
  In-sets, sources and may-spill sets, all of which may safely be
  over-approximated — see DESIGN.md).

Performance: the pair combination is one exact integer loop — every
constraint is normalised first and its coefficients are Python ints, which
cannot overflow — and the module-level queries are memoised under content
keys (:mod:`repro.sets.memo`).  A rational ``Fraction`` pair loop lives on as
the test oracle (``tests/sets/reference_affine.py``): identical constraints
in identical order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .. import perf
from . import memo
from .affine import LinExpr
from .basic_set import EQ, GE, BasicSet, Constraint

MAX_CONSTRAINTS = 2000


class EliminationError(Exception):
    """Raised when elimination blows up beyond the configured limits."""


@perf.timed("fm")
def eliminate_variable(constraints: Sequence[Constraint], name: str) -> list[Constraint]:
    """Eliminate one variable from a conjunction of constraints.

    Prefers substitution through an equality with a +-1 coefficient (exact on
    integers); otherwise falls back to classic Fourier-Motzkin combination
    (exact on rationals, over-approximate on integers).
    """
    constraints = [c.normalized() for c in constraints]

    # 1. Try an exact substitution via an equality with unit coefficient.
    for constraint in constraints:
        if constraint.kind != EQ:
            continue
        coeff = constraint.expr.coeff(name)
        if abs(coeff) == 1:
            # name = -(rest)/coeff = -coeff * rest, as coeff is +-1
            rest = LinExpr(
                {n: c for n, c in constraint.expr.coeffs.items() if n != name},
                constraint.expr.const,
            )
            replacement = rest * -coeff
            remaining = [c for c in constraints if c is not constraint]
            return [c.substitute({name: replacement}) for c in remaining]

    # 2. Fourier-Motzkin.  Each bound on ``name`` reads as the integers
    # ``(a, rest, const)`` of ``a*name + rest + const >= 0``: lower bounds
    # have ``a > 0``.
    others: list[Constraint] = []
    lower: list[tuple[int, dict[str, int], int]] = []
    upper: list[tuple[int, dict[str, int], int]] = []
    for constraint in constraints:
        expr = constraint.expr
        a = expr.coeffs.get(name)
        if a is None:
            others.append(constraint)
            continue
        rest = {n: c for n, c in expr.coeffs.items() if n != name}
        const = expr.const
        (lower if a > 0 else upper).append((a, rest, const))
        if constraint.kind == EQ:
            # A (non-unit) equality is two opposite inequalities.
            (upper if a > 0 else lower).append((-a, {n: -c for n, c in rest.items()}, -const))
    if len(others) + len(lower) * len(upper) > MAX_CONSTRAINTS:
        raise EliminationError("Fourier-Motzkin blow-up")

    # Combined rows list their names in first-seen order over all bounds.
    names = list(dict.fromkeys(n for _, rest, _ in (*lower, *upper) for n in rest))
    combined = []
    for a, lo_rest, lo_const in lower:
        for b, up_rest, up_const in upper:
            # lo: a*x + r1 >= 0 (a > 0)  =>  x >= -r1/a
            # up: b*x + r2 >= 0 (b < 0)  =>  x <= r2/|b|
            # combination: |b|*r1 + a*r2 >= 0
            row = {}
            for n in names:
                value = a * up_rest.get(n, 0) - b * lo_rest.get(n, 0)
                if value:
                    row[n] = value
            const = a * up_const - b * lo_const
            if not row and const >= 0:
                continue  # trivially true
            # normalized() divides the row by its gcd.
            combined.append(Constraint(LinExpr(row, const), GE).normalized())
    return [c for c in others if not c.is_trivially_true()] + combined


@perf.timed("fm")
def eliminate_variables(constraints: Sequence[Constraint], names: Iterable[str]) -> list[Constraint]:
    """Eliminate several variables, one at a time."""
    current = list(constraints)
    for name in names:
        current = eliminate_variable(current, name)
        if any(c.is_trivially_false() for c in current):
            return [Constraint(LinExpr.constant(-1), GE)]
    return current


@perf.timed("fm")
def project_out(basic_set: BasicSet, dim_names: Sequence[str]) -> BasicSet:
    """Project a basic set onto the dimensions not in ``dim_names``.

    The result is the rational projection restricted to integer points — an
    over-approximation of the exact integer projection.
    """
    remaining = tuple(d for d in basic_set.space.dims if d not in dim_names)
    constraints = eliminate_variables(basic_set.constraints, dim_names)
    from .space import Space

    space = Space(basic_set.space.tuple_name, remaining, basic_set.space.params)
    return BasicSet(space, constraints)


@perf.timed("fm")
def is_rationally_empty(constraints: Sequence[Constraint], variables: Sequence[str]) -> bool:
    """True when the conjunction has no rational solution in the given variables.

    The variables include both set dimensions and parameters: emptiness here
    means "empty for every parameter value", which is the sound direction for
    all independence tests in the lower-bound derivation.
    """
    key = (tuple(c.key() for c in constraints), tuple(variables))
    return memo.RATIONAL_EMPTINESS_CACHE.get_or_compute(
        key, lambda: _is_rationally_empty_uncached(constraints, variables)
    )


def _is_rationally_empty_uncached(
    constraints: Sequence[Constraint], variables: Sequence[str]
) -> bool:
    try:
        remaining = eliminate_variables(constraints, variables)
    except EliminationError:
        return False  # unknown -> conservatively "may be non-empty"
    return any(c.is_trivially_false() for c in remaining)


@perf.timed("fm")
def basic_set_is_empty(basic_set: BasicSet, context: Sequence[Constraint] = ()) -> bool:
    """Rational emptiness of a basic set, treating parameters existentially.

    ``context`` may supply extra assumptions on parameters (e.g. ``N >= 1``).
    Returns True only when the set is certainly empty.
    """
    key = (basic_set.fingerprint(), tuple(c.key() for c in context))
    return memo.EMPTINESS_CACHE.get_or_compute(
        key, lambda: _basic_set_is_empty_uncached(basic_set, context)
    )


def _basic_set_is_empty_uncached(
    basic_set: BasicSet, context: Sequence[Constraint] = ()
) -> bool:
    constraints = list(basic_set.constraints) + list(context)
    names = list(basic_set.space.dims) + list(basic_set.space.params)
    extra = sorted({n for c in context for n in c.expr.names() if n not in names})
    return is_rationally_empty(constraints, names + extra)
