"""Symbolic cardinality of parametric sets (the barvinok substitute).

``card`` computes ``|D|`` as a sympy expression in the program parameters by
eliminating dimensions innermost-first and summing polynomial weights over
affine bounds (Faulhaber's formulas).

The result is exact whenever every dimension has unit-coefficient lower and
upper bounds — which is the case for every PolyBench iteration domain and for
all the sets produced along the IOLB derivation — *and* the parameters are in
the "large" regime where all loop ranges are non-empty (the same assumption
the paper makes when reporting its formulas; the final bound is guarded by a
``max(0, .)``).  Non-unit coefficients raise :class:`CountingError`, which the
callers translate into a safely degraded (weaker) bound.

Count engine
------------

The polynomial weight carried through the recursion is a native
:class:`repro.sets.poly.Poly`: exact ``Fraction`` monomial dicts with the
precomputed Faulhaber tables doing each per-dimension sum in closed form,
converted to sympy once per basic set.  Only the weight is rational: the
affine bounds it sums between are integer :class:`LinExpr` rows.  The
recursion takes its weight engine as a parameter;
``tests/sets/test_counting.py`` substitutes a ``sympy.summation`` reference
engine and asserts identical expressions on every PolyBench and
fuzz-program statement domain.
"""

from __future__ import annotations

from typing import Sequence

import sympy

from .affine import LinExpr
from .basic_set import EQ, GE, BasicSet, Constraint
from .. import perf
from . import memo
from .fourier_motzkin import is_rationally_empty
from .poly import Poly, sym
from .pset import ParamSet

MAX_SPLIT_DEPTH = 8
MAX_UNION_PIECES_EXACT = 6


class CountingError(Exception):
    """Raised when the cardinality cannot be computed exactly."""


def count_backend() -> str:
    """Name of the count engine, recorded in run metadata."""
    return NATIVE_ENGINE.name


def lin_to_sympy(expr: LinExpr) -> sympy.Expr:
    """Convert a :class:`LinExpr` to sympy using the shared symbol table."""
    result: sympy.Expr = sympy.Integer(expr.const)
    for name, coeff in expr.coeffs.items():
        result += sympy.Integer(coeff) * sym(name)
    return result


class _NativeWeightEngine:
    """The closed-form weight algebra: :class:`Poly` end to end.

    The canonical dict-of-monomials form needs no ``expand`` between steps;
    each per-dimension sum is a Faulhaber table lookup plus exact
    ``Fraction`` dict merges.  Conversion to sympy happens once, at
    :meth:`finalize` — the final ``sympy.expand`` canonicalises the
    converted polynomial into exactly the expression ``sympy.summation``
    would produce.
    """

    name = "native"
    zero = Poly.zero()
    one = Poly.one()

    def sum_over(self, weight: Poly, dim: str, lower: LinExpr, upper: LinExpr):
        with perf.section("counting-sum"):
            return weight.sum_over(dim, lower, upper)

    def combine(self, first: Poly, second: Poly) -> Poly:
        return first + second

    def finalize(self, weight: Poly) -> sympy.Expr:
        return weight.to_sympy()


NATIVE_ENGINE = _NativeWeightEngine()


@perf.timed("counting")
def card(pset: ParamSet | BasicSet) -> sympy.Expr:
    """Exact symbolic cardinality (large-parameter regime)."""
    if isinstance(pset, BasicSet):
        return card_basic(pset)
    pieces = [p for p in pset.pieces if not p.has_trivially_false_constraint()]
    if not pieces:
        return sympy.Integer(0)
    if len(pieces) == 1:
        return card_basic(pieces[0])
    if len(pieces) > MAX_UNION_PIECES_EXACT:
        raise CountingError("too many pieces for exact inclusion-exclusion")
    return _inclusion_exclusion(pieces)


@perf.timed("counting")
def card_upper(pset: ParamSet | BasicSet) -> sympy.Expr:
    """Upper bound on the cardinality: the sum of the piece cardinalities.

    Used for quantities (sources, In-sets, may-spill sets) where an
    over-approximation keeps the derived lower bound valid.
    """
    if isinstance(pset, BasicSet):
        return card_basic(pset)
    total = sympy.Integer(0)
    for piece in pset.pieces:
        if piece.has_trivially_false_constraint():
            continue
        total += card_basic(piece)
    return total


def _inclusion_exclusion(pieces: Sequence[BasicSet]) -> sympy.Expr:
    from itertools import combinations

    total = sympy.Integer(0)
    n = len(pieces)
    for size in range(1, n + 1):
        sign = (-1) ** (size + 1)
        for subset in combinations(range(n), size):
            current = pieces[subset[0]]
            for index in subset[1:]:
                current = current.intersect(pieces[index])
            if current.has_trivially_false_constraint():
                continue
            variables = list(current.space.dims) + list(current.space.params)
            if is_rationally_empty(current.constraints, variables):
                continue
            total += sign * card_basic(current)
    return sympy.expand(total)


@perf.timed("counting")
def card_basic(basic: BasicSet) -> sympy.Expr:
    """Exact symbolic cardinality of one basic set.

    Results are memoised on the set's content fingerprint through
    :mod:`repro.sets.memo`, so structurally-equal domains reached along
    different derivation paths share one computation.  Sets the counting
    recursion rejects (:class:`CountingError`) are *not* cached — callers
    degrade those to weaker bounds and the failure is cheap to rediscover.
    """
    if basic.has_trivially_false_constraint():
        return sympy.Integer(0)
    return memo.CARD_CACHE.get_or_compute(
        basic.fingerprint(), lambda: _card_basic_cold(basic)
    )


def _card_basic_cold(basic: BasicSet, engine=NATIVE_ENGINE) -> sympy.Expr:
    constraints, dims = _substitute_equalities(
        list(basic.constraints), list(basic.space.dims)
    )
    weight = _count(constraints, dims, engine.one, 0, (), engine)
    return sympy.expand(engine.finalize(weight))


@perf.timed("counting")
def card_at(pset: ParamSet | BasicSet, params: dict[str, int]) -> int:
    """Concrete cardinality by enumeration (ground truth for tests)."""
    return len(pset.enumerate_points(params))


def _substitute_equalities(
    constraints: list[Constraint], dims: list[str]
) -> tuple[list[Constraint], list[str]]:
    """Use unit-coefficient equalities to eliminate dimensions exactly."""
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            if constraint.kind != EQ:
                continue
            target = None
            for dim in dims:
                if abs(constraint.expr.coeff(dim)) == 1:
                    target = dim
                    break
            if target is None:
                continue
            coeff = constraint.expr.coeff(target)
            rest = LinExpr(
                {n: c for n, c in constraint.expr.coeffs.items() if n != target},
                constraint.expr.const,
            )
            replacement = rest * -coeff
            constraints = [
                c.substitute({target: replacement})
                for c in constraints
                if c is not constraint
            ]
            dims = [d for d in dims if d != target]
            changed = True
            break
    remaining_eqs = [c for c in constraints if c.kind == EQ and c.expr.depends_on(dims)]
    if remaining_eqs:
        raise CountingError("equality with non-unit coefficients on dimensions")
    return constraints, dims


def _count(
    constraints: list[Constraint],
    dims: list[str],
    weight,
    split_depth: int,
    split_conditions: tuple[Constraint, ...],
    engine,
):
    """Recursive counting kernel, generic over the weight engine.

    ``weight`` is whatever the ``engine`` carries (a :class:`Poly` for
    :data:`NATIVE_ENGINE`): the recursion only ever sums it over one dimension between two
    affine bounds, adds branch contributions, and returns it at the leaf.

    ``split_conditions`` holds the extra constraints introduced by case splits
    (see :func:`_split_and_count`).  They participate in bound extraction like
    ordinary constraints, but any of them left over at the leaf (i.e. a pure
    parameter condition defining the branch) must decide whether this branch
    contributes — otherwise overlapping branches would be double-counted.
    """
    if not dims:
        if any(c.is_trivially_false() for c in list(constraints) + list(split_conditions)):
            return engine.zero
        # Residual *split* conditions on parameters are resolved under the
        # paper's asymptotic regime (all parameters large, growing together):
        #   sum of coefficients > 0  -> eventually satisfied  -> keep
        #   sum of coefficients < 0  -> eventually violated   -> contributes 0
        #   sum of coefficients = 0  -> genuinely ambiguous    -> give up
        for constraint in split_conditions:
            if constraint.expr.is_constant():
                continue
            total = sum(constraint.expr.coeffs.values())
            if total < 0:
                return engine.zero
            if total == 0:
                raise CountingError(
                    f"cannot order parameters in split condition {constraint!r}"
                )
        return weight
    dim = dims[-1]
    lower_bounds: list[LinExpr] = []
    upper_bounds: list[LinExpr] = []
    remaining: list[Constraint] = []
    remaining_splits: list[Constraint] = []
    for constraint, is_split in (
        [(c, False) for c in constraints] + [(c, True) for c in split_conditions]
    ):
        coeff = constraint.expr.coeff(dim)
        if coeff == 0:
            if is_split:
                remaining_splits.append(constraint)
            else:
                remaining.append(constraint)
            continue
        if constraint.kind == EQ:
            raise CountingError("unexpected equality during bound extraction")
        if abs(coeff) != 1:
            raise CountingError(f"non-unit coefficient {coeff} on dimension {dim}")
        rest = LinExpr(
            {n: c for n, c in constraint.expr.coeffs.items() if n != dim},
            constraint.expr.const,
        )
        if coeff > 0:
            # dim + rest >= 0  =>  dim >= -rest
            lower_bounds.append(-rest)
        else:
            # -dim + rest >= 0  =>  dim <= rest
            upper_bounds.append(rest)
    if not lower_bounds or not upper_bounds:
        raise CountingError(f"dimension {dim} is unbounded")

    context = list(constraints) + list(split_conditions)
    lower = _dominant_bound(lower_bounds, context, want_max=True)
    upper = _dominant_bound(upper_bounds, context, want_max=False)
    if lower is None or upper is None:
        ambiguous = lower_bounds if lower is None else upper_bounds
        pair = _find_incomparable_pair(ambiguous, context)
        if pair is None:
            raise CountingError("no dominant bound but no incomparable pair found")
        return _split_and_count(
            constraints, dims, weight, split_depth, split_conditions, pair, engine
        )

    if split_conditions:
        # Inside a split branch the interval [lower, upper] may be empty over
        # part of the outer domain even when the original set is non-empty
        # pointwise (the branch condition itself carves such regions out).
        # Summing there would *subtract* phantom points, so the summation
        # must be guarded by its own non-emptiness condition: decide it when
        # possible, otherwise carry ``upper >= lower`` as a further split
        # condition restricting the outer dimensions.
        outer = remaining + remaining_splits
        names = sorted(
            {n for c in outer for n in c.expr.names()}
            | set(lower.names()) | set(upper.names())
        )
        gap = Constraint(upper - lower, GE)
        if not is_rationally_empty(outer + [Constraint(lower - upper - 1, GE)], names):
            if is_rationally_empty(outer + [gap], names):
                return engine.zero
            remaining_splits = remaining_splits + [gap]

    length_sum = engine.sum_over(weight, dim, lower, upper)
    return _count(
        remaining, dims[:-1], length_sum, split_depth, tuple(remaining_splits), engine
    )


def _dominant_bound(
    bounds: list[LinExpr], constraints: list[Constraint], want_max: bool
) -> LinExpr | None:
    """Pick the bound that dominates all others over the set, if one exists."""
    bounds = _drop_constant_shifted_duplicates(bounds, want_max)
    if len(bounds) == 1:
        return bounds[0]
    names = sorted({n for c in constraints for n in c.expr.names()}
                   | {n for b in bounds for n in b.names()})
    for candidate in bounds:
        dominant = True
        for other in bounds:
            if other is candidate:
                continue
            # candidate dominates other iff no point of the set violates it:
            # for a max (lower bound) we need candidate >= other everywhere,
            # i.e. the region candidate <= other - 1 must be empty.
            if want_max:
                violation = Constraint(other - candidate - 1, GE)
            else:
                violation = Constraint(candidate - other - 1, GE)
            if not is_rationally_empty(list(constraints) + [violation], names):
                dominant = False
                break
        if dominant:
            return candidate
    return None


def _drop_constant_shifted_duplicates(bounds: list[LinExpr], want_max: bool) -> list[LinExpr]:
    """Remove bounds dominated by another bound that differs only by a constant.

    Two bounds with identical coefficients compare unconditionally, so keeping
    only the larger (for a max of lower bounds) or the smaller (for a min of
    upper bounds) is exact and avoids needless case splits.
    """
    kept: list[LinExpr] = []
    for bound in bounds:
        replaced = False
        for index, existing in enumerate(kept):
            if existing.coeffs == bound.coeffs:
                if (want_max and bound.const > existing.const) or (
                    not want_max and bound.const < existing.const
                ):
                    kept[index] = bound
                replaced = True
                break
        if not replaced:
            kept.append(bound)
    return kept


def _find_incomparable_pair(
    bounds: list[LinExpr], context: list[Constraint]
) -> tuple[LinExpr, LinExpr] | None:
    """Find two bounds whose order genuinely varies over the set."""
    names = sorted({n for c in context for n in c.expr.names()}
                   | {n for b in bounds for n in b.names()})
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            first, second = bounds[i], bounds[j]
            first_can_be_smaller = not is_rationally_empty(
                context + [Constraint(second - first - 1, GE)], names
            )
            first_can_be_larger = not is_rationally_empty(
                context + [Constraint(first - second - 1, GE)], names
            )
            if first_can_be_smaller and first_can_be_larger:
                return first, second
    return None


def _split_and_count(
    constraints: list[Constraint],
    dims: list[str],
    weight,
    split_depth: int,
    split_conditions: tuple[Constraint, ...],
    pair: tuple[LinExpr, LinExpr],
    engine,
):
    """Case-split on the order of two incomparable bounds and recurse.

    The two branch conditions are carried as *split conditions* so that any
    residue of them surviving down to the leaf (a pure parameter condition)
    can decide whether the branch contributes at all.
    """
    if split_depth >= MAX_SPLIT_DEPTH:
        raise CountingError("too many case splits during counting")
    first, second = pair
    case_ge = split_conditions + (Constraint(first - second, GE),)
    case_lt = split_conditions + (Constraint(second - first - 1, GE),)
    return engine.combine(
        _count(constraints, dims, weight, split_depth + 1, case_ge, engine),
        _count(constraints, dims, weight, split_depth + 1, case_lt, engine),
    )
