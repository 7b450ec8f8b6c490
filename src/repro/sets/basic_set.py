"""Basic sets: conjunctions of affine constraints over a named space.

A :class:`BasicSet` is the analogue of an ISL ``basic_set``: the set of
integer points of a parametric polyhedron, described by equalities and
inequalities over the space's dimensions and parameters.

Constraints are immutable, and the hot path (Fourier-Motzkin elimination,
emptiness, counting) re-canonicalises the same constraint objects over and
over — so canonicalisation is computed once and cached on the frozen
object, and canonical constraints are *interned*: structurally equal
constraints share one object, which makes repeated normalisation free and
gives structurally equal sets identical content fingerprints.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import Iterable, Mapping, Sequence

from .. import perf
from .affine import LinExpr
from .space import Space

EQ = "eq"   # expr == 0
GE = "ge"   # expr >= 0

# Interning table for canonical constraints (equal by canonical key).
_intern_lock = threading.Lock()
_intern_table: dict = {}
_INTERN_MAX = 1 << 17
perf.renew_lock_at_fork(sys.modules[__name__], "_intern_lock")


@dataclass(frozen=True, eq=False)
class Constraint:
    """A single affine constraint: ``expr == 0`` (EQ) or ``expr >= 0`` (GE).

    Equality is equality of :meth:`key`, and the hash of the key is cached,
    so dedup, interning and piece signatures hash each constraint's
    ``Fraction`` coefficients once.  The cached hash depends on the
    interpreter's string hash seed, so it is never pickled.
    """

    expr: LinExpr
    kind: str = GE

    def __post_init__(self) -> None:
        if self.kind not in (EQ, GE):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def key(self) -> tuple:
        """Canonical content key: ``(kind, sorted coeffs, const)``.

        Computed once and cached on the frozen object; used for dedup,
        interning and memo keys.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (self.kind, tuple(sorted(self.expr.coeffs.items())), self.expr.const)
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self is other or self.key() == other.key()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.key())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # Only the fields: the caches are rebuilt, and a worker started by
        # ``spawn`` or ``forkserver`` hashes strings under its own seed.
        return (Constraint, (self.expr, self.kind))

    def normalized(self) -> "Constraint":
        """Scale coefficients to coprime integers (direction preserved).

        The result is cached on the object and interned so structurally
        equal canonical constraints are one shared object.
        """
        cached = self.__dict__.get("_normalized")
        if cached is not None:
            return cached
        scaled = self.expr.scaled_to_integers()
        normalized = self if scaled is self.expr else Constraint(scaled, self.kind)
        normalized = _intern(normalized)
        object.__setattr__(self, "_normalized", normalized)
        return normalized

    def is_trivially_true(self) -> bool:
        expr = self.expr
        if not expr.is_constant():
            return False
        return expr.const == 0 if self.kind == EQ else expr.const >= 0

    def is_trivially_false(self) -> bool:
        expr = self.expr
        if not expr.is_constant():
            return False
        return expr.const != 0 if self.kind == EQ else expr.const < 0

    def substitute(self, mapping: Mapping[str, LinExpr | int]) -> "Constraint":
        return Constraint(self.expr.substitute(mapping), self.kind)

    def satisfied_by(self, values: Mapping[str, object]) -> bool:
        value = self.expr.evaluate(values)
        return value == 0 if self.kind == EQ else value >= 0

    def __repr__(self) -> str:
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr!r} {op} 0"


def _intern(constraint: Constraint) -> Constraint:
    """Return the one shared instance of a canonical constraint."""
    with _intern_lock:
        existing = _intern_table.get(constraint)
        if existing is not None:
            return existing
        if len(_intern_table) >= _INTERN_MAX:
            _intern_table.clear()
        # A canonical constraint is its own normal form.
        if "_normalized" not in constraint.__dict__:
            object.__setattr__(constraint, "_normalized", constraint)
        _intern_table[constraint] = constraint
        return constraint


def interned_count() -> int:
    """Number of canonical constraints currently interned (diagnostics)."""
    with _intern_lock:
        return len(_intern_table)


class BasicSet:
    """Integer points of a parametric polyhedron over a named space."""

    __slots__ = ("space", "constraints", "_fingerprint")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()):
        self.space = space
        unique: dict[Constraint, None] = {}
        for constraint in constraints:
            constraint = constraint.normalized()
            if not constraint.is_trivially_true():
                unique.setdefault(constraint)
        self.constraints: tuple[Constraint, ...] = tuple(unique)
        self._fingerprint: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "BasicSet":
        """The unconstrained set over ``space``."""
        return cls(space, ())

    @classmethod
    def from_bounds(
        cls,
        space: Space,
        bounds: Mapping[str, tuple[LinExpr | int, LinExpr | int]],
    ) -> "BasicSet":
        """Convenience constructor: ``bounds[d] = (lo, hi)`` meaning ``lo <= d <= hi``."""
        constraints = []
        for dim, (lo, hi) in bounds.items():
            dim_expr = LinExpr.var(dim)
            constraints.append(Constraint(dim_expr - lo, GE))
            constraints.append(Constraint(_as_lin(hi) - dim_expr, GE))
        return cls(space, constraints)

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the canonical form (space + constraints).

        Structurally equal sets — same space, same canonical constraints in
        the same order — share a fingerprint regardless of how they were
        built.  This is the memo key used by the emptiness and counting
        caches.
        """
        cached = self._fingerprint
        if cached is None:
            digest = blake2b(digest_size=16)
            space = self.space
            digest.update(repr((space.tuple_name, space.dims, space.params)).encode())
            for constraint in self.constraints:
                digest.update(repr(constraint.key()).encode())
            cached = self._fingerprint = digest.hexdigest()
        return cached

    # -- queries -----------------------------------------------------------

    def has_trivially_false_constraint(self) -> bool:
        return any(c.is_trivially_false() for c in self.constraints)

    def equalities(self) -> list[Constraint]:
        return [c for c in self.constraints if c.kind == EQ]

    def inequalities(self) -> list[Constraint]:
        return [c for c in self.constraints if c.kind == GE]

    def contains_point(self, point: Sequence[int], params: Mapping[str, int]) -> bool:
        """Membership test for a concrete point under concrete parameter values."""
        values = dict(params)
        values.update(dict(zip(self.space.dims, point)))
        return all(c.satisfied_by(values) for c in self.constraints)

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Intersection of two basic sets over the same dimensions."""
        if self.space.dims != other.space.dims:
            raise ValueError("intersection of sets with different dimensions")
        space = self.space.with_params(other.space.params)
        return BasicSet(space, self.constraints + other.constraints)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.space, self.constraints + tuple(constraints))

    def substitute(self, mapping: Mapping[str, LinExpr | int]) -> "BasicSet":
        """Apply a substitution to every constraint (space is unchanged)."""
        return BasicSet(self.space, tuple(c.substitute(mapping) for c in self.constraints))

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        """Rename dimensions, keeping constraints consistent."""
        new_dims = tuple(mapping.get(d, d) for d in self.space.dims)
        space = Space(self.space.tuple_name, new_dims, self.space.params)
        subst = {old: LinExpr.var(new) for old, new in mapping.items()}
        return BasicSet(space, tuple(c.substitute(subst) for c in self.constraints))

    def with_tuple_name(self, name: str) -> "BasicSet":
        return BasicSet(self.space.rename_tuple(name), self.constraints)

    def fix_dim(self, dim_name: str, value: LinExpr | int) -> "BasicSet":
        """Add the equality ``dim == value`` (used for loop parametrisation)."""
        expr = LinExpr.var(dim_name) - _as_lin(value)
        extra_params = tuple(
            n for n in _as_lin(value).names() if n not in self.space.dims and n not in self.space.params
        )
        space = self.space.with_params(extra_params)
        return BasicSet(space, self.constraints + (Constraint(expr, EQ),))

    # -- enumeration (for concrete parameter values) -------------------------

    @perf.timed("sets")
    def enumerate_points(self, params: Mapping[str, int], bound: int = 2000) -> list[tuple[int, ...]]:
        """Enumerate all integer points for concrete parameter values.

        Intended for small instances (tests, CDAG expansion).  Dimensions are
        assigned in :meth:`_enumeration_order`, and each constraint bounds the
        last of its dimensions in that order, in exact integer floor division
        once the earlier ones are fixed.  So every constraint is a bound and
        no point is tested afterwards.  The ``bound`` argument caps any
        dimension that remains unbounded.  Points come in ascending
        lexicographic order of the enumeration order, each a tuple in
        ``space.dims`` order.  A name that is neither a dimension nor a key
        of ``params`` raises ``KeyError``.
        """
        dims = self.space.dims
        order = self._enumeration_order()
        position = {dim: k for k, dim in enumerate(order)}
        # rows[k]: the constraints whose last dimension is order[k], as
        # (its coefficient, is an equality, the earlier dimensions'
        # (position, coefficient) pairs, the constant with params folded in).
        rows: list[list[tuple]] = [[] for _ in order]
        for constraint in self.constraints:
            const = constraint.expr.const
            terms = []
            for name, coeff in constraint.expr.coeffs.items():
                if name in position:
                    terms.append((position[name], _exact(coeff)))
                else:
                    const += coeff * Fraction(params[name])
            const = _exact(const)
            if not terms:
                if const != 0 if constraint.kind == EQ else const < 0:
                    return []
                continue
            terms.sort()
            last, coeff = terms.pop()
            rows[last].append((coeff, constraint.kind == EQ, terms, const))
        if not order:
            return [()]

        values = [0] * len(order)

        def dim_range(k: int) -> range:
            lo, hi = -bound, bound
            for coeff, is_eq, terms, rest in rows[k]:
                for p, c in terms:
                    rest += c * values[p]
                if is_eq:
                    if rest % coeff:
                        return range(0)
                    lo = max(lo, -rest // coeff)
                    hi = min(hi, -rest // coeff)
                elif coeff > 0:
                    lo = max(lo, -(rest // coeff))
                else:
                    hi = min(hi, rest // -coeff)
            return range(lo, hi + 1)

        # The innermost dimension runs as a plain range spliced between the
        # outer values that precede and follow it in ``space.dims``.
        inner = len(order) - 1
        split = dims.index(order[inner])
        head = [position[d] for d in dims[:split]]
        tail = [position[d] for d in dims[split + 1:]]
        points: list[tuple[int, ...]] = []

        def descend(k: int) -> None:
            if k == inner:
                before = tuple(values[p] for p in head)
                after = tuple(values[p] for p in tail)
                points.extend(before + (v,) + after for v in dim_range(k))
                return
            for v in dim_range(k):
                values[k] = v
                descend(k + 1)

        descend(0)
        return points

    def _enumeration_order(self) -> list[str]:
        """Order dimensions so each is bounded by already-chosen ones if possible."""
        remaining = list(self.space.dims)
        order: list[str] = []
        while remaining:
            best = None
            for dim in remaining:
                has_lower = False
                has_upper = False
                for constraint in self.constraints:
                    coeff = constraint.expr.coeff(dim)
                    if coeff == 0:
                        continue
                    other_dims = (constraint.expr.names() - {dim}) & set(remaining)
                    if other_dims:
                        continue
                    if constraint.kind == EQ:
                        has_lower = has_upper = True
                    elif coeff > 0:
                        has_lower = True
                    else:
                        has_upper = True
                if has_lower and has_upper:
                    best = dim
                    break
            if best is None:
                best = remaining[0]
            order.append(best)
            remaining.remove(best)
        return order

    def __repr__(self) -> str:
        constraints = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ {self.space.tuple_name}[{', '.join(self.space.dims)}] : {constraints} }}"


def _as_lin(value: LinExpr | int) -> LinExpr:
    return value if isinstance(value, LinExpr) else LinExpr.constant(value)


def _exact(value: Fraction) -> int | Fraction:
    """``value`` as an ``int`` when integral, so bound arithmetic stays in ints."""
    return value.numerator if value.denominator == 1 else value
