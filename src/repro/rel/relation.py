"""Parametric affine relations over the :mod:`repro.sets` substrate.

An :class:`AffineRelation` is the library's analogue of an ISL *map*: a
finite union of basic relations between two named spaces, each basic
relation being the integer points of a polyhedron over the concatenated
``(input, output)`` dimensions.  Relations are what Algorithm 5 of the paper
manipulates — dependence relations of the DFG, their compositions along
paths, and their transitive closures — so this module is the substrate that
lets the wavefront completeness hypothesis (Cor. 6.3) be decided
symbolically instead of on a concretely expanded CDAG.

Representation
--------------

Internally every piece is a :class:`~repro.sets.basic_set.BasicSet` over the
canonical dimension names ``__i0, __i1, ...`` (input) followed by
``__o0, __o1, ...`` (output); the user-facing spaces keep their own
dimension and tuple names.  Two relations with the same input/output arities
therefore always share a piece space, which makes union, subtraction and
subset tests direct :class:`~repro.sets.pset.ParamSet` operations.

Exactness
---------

Every relation carries an ``exact`` flag: ``True`` means the piece union is
*exactly* the integer relation denoted by the constructing operations.
Unions, intersections, inverses and subtractions preserve exactness;
composition eliminates the mid-space dimensions and stays exact only when
every eliminated dimension goes through a unit-coefficient equality (always
the case for the translation/broadcast dependence functions of the
PolyBench programs) — otherwise the Fourier-Motzkin fallback may
over-approximate and the flag drops to ``False``.  The transitive-closure
engine (:mod:`repro.rel.closure`) builds on this flag for its own
exactness certificate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..sets import (
    EQ,
    GE,
    AffineFunction,
    BasicSet,
    Constraint,
    EliminationError,
    LinExpr,
    ParamSet,
    Space,
    basic_set_is_empty,
    eliminate_variable,
)
from ..sets.pset import _negate_basic

#: Composition keeps piece counts bounded: beyond the cap it truncates
#: (dropping pieces, flag -> inexact) rather than blowing up.  Dropping
#: pieces *under*-approximates, which is the sound direction for every
#: positive reachability certificate.  The subset test has a worklist step
#: budget instead; on overrun it conservatively answers False.
MAX_COMPOSE_PIECES = 160
MAX_SUBSET_PIECES = 128

#: A composed piece whose constraint system grows beyond this is dropped
#: (non-unit Fourier-Motzkin combinations can square the constraint count);
#: the drop under-approximates and flags the relation inexact.
MAX_PIECE_CONSTRAINTS = 64

#: Cuts larger than this are ignored by the subset test: negating a cut
#: yields one branch per constraint, and each branch costs an emptiness
#: check, so oversized cuts make the test quadratic for little benefit.
#: Ignoring a cut only makes the test more conservative.
MAX_SUBSET_CUT_CONSTRAINTS = 32


def in_name(index: int) -> str:
    """Canonical internal name of input dimension ``index``."""
    return f"__i{index}"


def out_name(index: int) -> str:
    """Canonical internal name of output dimension ``index``."""
    return f"__o{index}"


def _in_names(arity: int) -> tuple[str, ...]:
    return tuple(in_name(k) for k in range(arity))


def _out_names(arity: int) -> tuple[str, ...]:
    return tuple(out_name(k) for k in range(arity))


def _merge_params(*param_tuples: Sequence[str]) -> tuple[str, ...]:
    merged: list[str] = []
    for params in param_tuples:
        for p in params:
            if p not in merged:
                merged.append(p)
    return tuple(merged)


def _piece_space(n_in: int, n_out: int, params: Sequence[str]) -> Space:
    return Space("__rel", _in_names(n_in) + _out_names(n_out), tuple(params))


def _eliminate_tracked(
    constraints: Sequence[Constraint], names: Iterable[str]
) -> tuple[list[Constraint], bool]:
    """Eliminate ``names``, reporting whether every elimination was exact.

    An elimination step is exact on the *integers* when the variable goes
    out through a unit-coefficient equality (back-substitution), or when
    every constraint mentioning it has a unit coefficient — then each
    Fourier-Motzkin lower/upper combination bounds the variable between two
    integral affine forms, so a rational solution always contains an integer
    one.  Otherwise the step may over-approximate and taints the flag.
    """
    exact = True
    current = [c.normalized() for c in constraints]
    for name in names:
        occurring = [c.expr.coeff(name) for c in current if c.expr.coeff(name) != 0]
        has_unit_equality = any(
            c.kind == EQ and abs(c.expr.coeff(name)) == 1 for c in current
        )
        all_unit = all(abs(coeff) == 1 for coeff in occurring)
        if occurring and not (has_unit_equality or all_unit):
            exact = False
        current = eliminate_variable(current, name)
        if any(c.is_trivially_false() for c in current):
            return [Constraint(LinExpr.constant(-1), GE)], exact
    return current, exact


class AffineRelation:
    """A finite union of basic affine relations between two named spaces."""

    __slots__ = ("in_space", "out_space", "pieces", "exact")

    def __init__(
        self,
        in_space: Space,
        out_space: Space,
        pieces: Iterable[BasicSet] = (),
        exact: bool = True,
    ):
        self.in_space = in_space
        self.out_space = out_space
        expected = _in_names(in_space.dim) + _out_names(out_space.dim)
        kept: list[BasicSet] = []
        seen: set[frozenset] = set()
        for piece in pieces:
            if piece.space.dims != expected:
                raise ValueError(
                    f"relation piece over dims {piece.space.dims}, expected {expected}"
                )
            if piece.has_trivially_false_constraint():
                continue
            signature = frozenset(piece.constraints)
            if signature in seen:
                continue
            seen.add(signature)
            kept.append(piece)
        self.pieces: tuple[BasicSet, ...] = tuple(kept)
        self.exact = bool(exact)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(
        cls,
        domain: ParamSet,
        function: AffineFunction,
        out_space: Space,
        exact: bool = True,
    ) -> "AffineRelation":
        """The functional relation ``{ x -> f(x) : x in domain }``."""
        if tuple(domain.space.dims) != tuple(function.domain_space.dims):
            raise ValueError("domain space and function domain disagree")
        if function.target_arity != out_space.dim:
            raise ValueError("function arity and output space disagree")
        n_in = domain.space.dim
        rename = {d: in_name(k) for k, d in enumerate(domain.space.dims)}
        substitution = {d: LinExpr.var(n) for d, n in rename.items()}
        pieces = []
        for piece in domain.pieces:
            params = _merge_params(piece.space.params, out_space.params)
            space = _piece_space(n_in, out_space.dim, params)
            constraints = [
                c.substitute(substitution) for c in piece.constraints
            ]
            for k, expr in enumerate(function.exprs):
                constraints.append(
                    Constraint(LinExpr.var(out_name(k)) - expr.substitute(substitution), EQ)
                )
            pieces.append(BasicSet(space, constraints))
        return cls(domain.space, out_space, pieces, exact=exact)

    @classmethod
    def identity(cls, space: Space) -> "AffineRelation":
        """The identity relation on the universe of ``space``."""
        return cls.from_function(
            ParamSet.universe(space), AffineFunction.identity(space), space
        )

    @classmethod
    def universal(cls, domain: ParamSet, range_: ParamSet) -> "AffineRelation":
        """The complete relation ``domain x range`` (every pair related)."""
        n_in, n_out = domain.space.dim, range_.space.dim
        in_sub = {d: LinExpr.var(in_name(k)) for k, d in enumerate(domain.space.dims)}
        out_sub = {d: LinExpr.var(out_name(k)) for k, d in enumerate(range_.space.dims)}
        pieces = []
        for dom_piece in domain.pieces:
            for ran_piece in range_.pieces:
                params = _merge_params(dom_piece.space.params, ran_piece.space.params)
                space = _piece_space(n_in, n_out, params)
                constraints = [c.substitute(in_sub) for c in dom_piece.constraints]
                constraints += [c.substitute(out_sub) for c in ran_piece.constraints]
                pieces.append(BasicSet(space, constraints))
        return cls(domain.space, range_.space, pieces)

    @classmethod
    def empty(cls, in_space: Space, out_space: Space) -> "AffineRelation":
        return cls(in_space, out_space, ())

    # -- queries -----------------------------------------------------------

    @property
    def n_in(self) -> int:
        return self.in_space.dim

    @property
    def n_out(self) -> int:
        return self.out_space.dim

    def is_obviously_empty(self) -> bool:
        return not self.pieces

    def is_empty(self, context: Sequence[Constraint] = ()) -> bool:
        """True when every piece is rationally (hence certainly) empty."""
        return all(basic_set_is_empty(p, context) for p in self.pieces)

    def contains_pair(
        self,
        point_in: Sequence[int],
        point_out: Sequence[int],
        params: Mapping[str, int],
    ) -> bool:
        """Membership test for a concrete pair under concrete parameters."""
        combined = tuple(point_in) + tuple(point_out)
        return any(p.contains_point(combined, params) for p in self.pieces)

    def enumerate_pairs(
        self, params: Mapping[str, int], bound: int = 2000
    ) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All concrete pairs for concrete parameters (small instances only)."""
        n_in = self.n_in
        pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for piece in self.pieces:
            for point in piece.enumerate_points(params, bound):
                pairs.add((point[:n_in], point[n_in:]))
        return pairs

    # -- algebra -----------------------------------------------------------

    def _check_same_shape(self, other: "AffineRelation", operation: str) -> None:
        if (
            self.in_space.dim != other.in_space.dim
            or self.out_space.dim != other.out_space.dim
            or self.in_space.tuple_name != other.in_space.tuple_name
            or self.out_space.tuple_name != other.out_space.tuple_name
        ):
            raise ValueError(
                f"{operation} of relations over different spaces: "
                f"{self.in_space.tuple_name}->{self.out_space.tuple_name} vs "
                f"{other.in_space.tuple_name}->{other.out_space.tuple_name}"
            )

    def union(self, other: "AffineRelation") -> "AffineRelation":
        self._check_same_shape(other, "union")
        return AffineRelation(
            self.in_space,
            self.out_space,
            self.pieces + other.pieces,
            exact=self.exact and other.exact,
        )

    def intersect(self, other: "AffineRelation") -> "AffineRelation":
        self._check_same_shape(other, "intersection")
        pieces = [a.intersect(b) for a in self.pieces for b in other.pieces]
        return AffineRelation(
            self.in_space, self.out_space, pieces, exact=self.exact and other.exact
        )

    def restrict(self, constraints: Iterable[Constraint]) -> "AffineRelation":
        """Intersect every piece with extra constraints over the internal
        ``__i*`` / ``__o*`` names (see :func:`in_name` / :func:`out_name`)."""
        extra = tuple(constraints)
        pieces = [p.add_constraints(extra) for p in self.pieces]
        return AffineRelation(self.in_space, self.out_space, pieces, exact=self.exact)

    def restrict_domain(self, domain: ParamSet) -> "AffineRelation":
        """Restrict to pairs whose input lies in ``domain``."""
        if tuple(domain.space.dims) != tuple(self.in_space.dims):
            raise ValueError("restrict_domain: dimension mismatch")
        sub = {d: LinExpr.var(in_name(k)) for k, d in enumerate(domain.space.dims)}
        pieces = []
        for piece in self.pieces:
            for dom_piece in domain.pieces:
                extra = [c.substitute(sub) for c in dom_piece.constraints]
                pieces.append(piece.add_constraints(extra))
        return AffineRelation(self.in_space, self.out_space, pieces, exact=self.exact)

    def restrict_range(self, range_: ParamSet) -> "AffineRelation":
        """Restrict to pairs whose output lies in ``range_``."""
        if tuple(range_.space.dims) != tuple(self.out_space.dims):
            raise ValueError("restrict_range: dimension mismatch")
        sub = {d: LinExpr.var(out_name(k)) for k, d in enumerate(range_.space.dims)}
        pieces = []
        for piece in self.pieces:
            for ran_piece in range_.pieces:
                extra = [c.substitute(sub) for c in ran_piece.constraints]
                pieces.append(piece.add_constraints(extra))
        return AffineRelation(self.in_space, self.out_space, pieces, exact=self.exact)

    def inverse(self) -> "AffineRelation":
        """The relation with input and output swapped."""
        n_in, n_out = self.n_in, self.n_out
        swap = {in_name(k): LinExpr.var(out_name(k)) for k in range(n_in)}
        swap.update({out_name(k): LinExpr.var(in_name(k)) for k in range(n_out)})
        pieces = []
        for piece in self.pieces:
            space = _piece_space(n_out, n_in, piece.space.params)
            pieces.append(
                BasicSet(space, [c.substitute(swap) for c in piece.constraints])
            )
        return AffineRelation(self.out_space, self.in_space, pieces, exact=self.exact)

    def compose(self, other: "AffineRelation") -> "AffineRelation":
        """Sequential composition: apply ``self`` first, then ``other``.

        ``self`` relates A -> B and ``other`` relates B -> C; the result
        relates A -> C.  The mid-space dimensions are eliminated.

        The result is always a sound *under*-approximation of the true
        composition: a piece whose elimination is not integer-exact (the
        Fourier-Motzkin relaxation would admit pairs with no integral
        mid-point) is dropped rather than kept, as is a piece whose
        constraint system blows up, and the piece product is truncated at
        :data:`MAX_COMPOSE_PIECES`.  Any loss clears the ``exact`` flag.
        This keeps every certificate built from compositions (subset tests
        against closures) sound.
        """
        if self.out_space.dim != other.in_space.dim:
            raise ValueError("composition arity mismatch")
        if self.out_space.tuple_name != other.in_space.tuple_name:
            raise ValueError(
                f"composition space mismatch: {self.out_space.tuple_name!r} "
                f"vs {other.in_space.tuple_name!r}"
            )
        n_mid = self.out_space.dim
        mid_names = [f"__m{k}" for k in range(n_mid)]
        left_sub = {out_name(k): LinExpr.var(mid_names[k]) for k in range(n_mid)}
        right_sub = {in_name(k): LinExpr.var(mid_names[k]) for k in range(n_mid)}

        pieces: list[BasicSet] = []
        exact = self.exact and other.exact
        truncated = False
        for left in self.pieces:
            for right in other.pieces:
                if len(pieces) >= MAX_COMPOSE_PIECES:
                    truncated = True
                    break
                params = _merge_params(left.space.params, right.space.params)
                constraints = [c.substitute(left_sub) for c in left.constraints]
                constraints += [c.substitute(right_sub) for c in right.constraints]
                try:
                    eliminated, elim_exact = _eliminate_tracked(constraints, mid_names)
                except EliminationError:
                    # Fourier-Motzkin blow-up: drop the piece (a sound
                    # under-approximation) and record the loss.
                    exact = False
                    continue
                if not elim_exact or len(eliminated) > MAX_PIECE_CONSTRAINTS:
                    # A rationally-relaxed piece would *over*-approximate
                    # (pairs without an integral mid-point); drop it.
                    exact = False
                    continue
                space = _piece_space(self.n_in, other.n_out, params)
                pieces.append(BasicSet(space, eliminated))
            if truncated:
                break
        return AffineRelation(
            self.in_space, other.out_space, pieces, exact=exact and not truncated
        )

    # -- projections -------------------------------------------------------

    def domain(self) -> ParamSet:
        """The set of inputs related to some output (rational projection,
        hence an over-approximation in general)."""
        return self._project(self.in_space, _out_names(self.n_out), _in_names(self.n_in))

    def range(self) -> ParamSet:
        """The set of outputs related to some input (over-approximation)."""
        return self._project(self.out_space, _in_names(self.n_in), _out_names(self.n_out))

    def _project(
        self, target_space: Space, remove: Sequence[str], keep: Sequence[str]
    ) -> ParamSet:
        rename = {k: d for k, d in zip(keep, target_space.dims)}
        sub = {k: LinExpr.var(d) for k, d in rename.items()}
        pieces = []
        for piece in self.pieces:
            eliminated, _ = _eliminate_tracked(piece.constraints, remove)
            space = Space(
                target_space.tuple_name,
                target_space.dims,
                _merge_params(piece.space.params, target_space.params),
            )
            pieces.append(BasicSet(space, [c.substitute(sub) for c in eliminated]))
        space = Space(target_space.tuple_name, target_space.dims, target_space.params)
        return ParamSet(pieces[0].space if pieces else space, pieces)

    def apply(self, pset: ParamSet) -> ParamSet:
        """Image of a set under the relation (over-approximation in general)."""
        return self.restrict_domain(pset).range()

    # -- ordering ----------------------------------------------------------

    def coalesce(self, context: Sequence[Constraint] = ()) -> "AffineRelation":
        """Drop rationally-empty pieces (cheap cleanup; exactness preserved)."""
        kept = [p for p in self.pieces if not basic_set_is_empty(p, context)]
        return AffineRelation(self.in_space, self.out_space, kept, exact=self.exact)

    def is_subset(
        self, other: "AffineRelation", context: Sequence[Constraint] = ()
    ) -> bool:
        """Certified inclusion test: True only when ``self - other`` is
        provably (rationally) empty under ``context``.

        Worklist algorithm: a part that is fully contained in a *single*
        piece of ``other`` is discharged directly (one negation sweep, no
        fragmentation); otherwise the part is split along the first piece
        that provably intersects it and the fragments are re-examined.  The
        step budget makes the test conservative: on overrun it answers
        False.
        """
        self._check_same_shape(other, "subset test")
        cuts = [
            (cut, _negate_basic(cut))
            for cut in other.pieces
            if len(cut.constraints) <= MAX_SUBSET_CUT_CONSTRAINTS
        ]
        work = [p for p in self.pieces if not basic_set_is_empty(p, context)]
        steps = 0
        while work:
            part = work.pop()
            steps += 1
            if steps > MAX_SUBSET_PIECES:
                return False
            if len(part.constraints) > MAX_PIECE_CONSTRAINTS:
                # Emptiness tests on a system this large can blow up inside
                # Fourier-Motzkin; give up (conservative).
                return False
            discharged = False
            fragments: list[BasicSet] | None = None
            for cut, negations in cuts:
                residue = []
                for negation in negations:
                    candidate = part.add_constraints(negation)
                    if candidate.has_trivially_false_constraint():
                        continue
                    if basic_set_is_empty(candidate, context):
                        continue
                    residue.append(candidate)
                if not residue:
                    discharged = True  # part is inside this single cut
                    break
                if fragments is None:
                    # Remember the first cut that provably intersects the
                    # part: splitting along it makes progress (the fragments
                    # are disjoint from the cut) if no single cut contains
                    # the part outright.
                    intersection = part.intersect(cut)
                    if not basic_set_is_empty(intersection, context):
                        fragments = residue
            if discharged:
                continue
            if fragments is None:
                return False  # no piece of `other` even intersects this part
            work.extend(fragments)
        return True

    def __repr__(self) -> str:
        flag = "exact" if self.exact else "approx"
        return (
            f"AffineRelation({self.in_space.tuple_name} -> "
            f"{self.out_space.tuple_name}, pieces={len(self.pieces)}, {flag})"
        )


def translation_of_piece(relation: AffineRelation, piece: BasicSet) -> tuple[int, ...] | None:
    """The constant offset ``b`` when the piece has the form ``x -> x + b``.

    Recognised syntactically: for every coordinate ``k`` there must be an
    equality whose support is exactly ``{__ik, __ok}`` with opposite unit
    coefficients.  Returns the integral offset vector, or None when the
    piece is not (recognisably) a translation.
    """
    if relation.n_in != relation.n_out:
        return None
    offsets: list[int] = []
    for k in range(relation.n_in):
        i_name, o_name = in_name(k), out_name(k)
        found = None
        for constraint in piece.constraints:
            if constraint.kind != EQ:
                continue
            expr = constraint.expr
            if set(expr.coeffs) != {i_name, o_name}:
                continue
            out_coeff = expr.coeff(o_name)
            if out_coeff < 0:
                expr = -expr
                out_coeff = expr.coeff(o_name)
            if out_coeff != 1 or expr.coeff(i_name) != -1:
                continue
            found = -expr.const
            break
        if found is None:
            return None
        offsets.append(found)
    return tuple(offsets)
