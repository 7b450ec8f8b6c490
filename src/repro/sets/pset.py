"""Parametric sets: finite unions of basic sets over a common space."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .. import perf
from .basic_set import GE, BasicSet, Constraint
from .fourier_motzkin import basic_set_is_empty, project_out
from .space import Space


class ParamSet:
    """A union of :class:`BasicSet` pieces sharing the same dimensions."""

    __slots__ = ("space", "pieces")

    def __init__(self, space: Space, pieces: Iterable[BasicSet] = ()):
        self.space = space
        kept = []
        for piece in pieces:
            if piece.space.dims != space.dims:
                raise ValueError("union of basic sets with different dimensions")
            if piece.has_trivially_false_constraint():
                continue
            kept.append(piece)
        self.pieces: tuple[BasicSet, ...] = tuple(kept)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_basic(cls, basic: BasicSet) -> "ParamSet":
        return cls(basic.space, [basic])

    @classmethod
    def empty(cls, space: Space) -> "ParamSet":
        return cls(space, [])

    @classmethod
    def universe(cls, space: Space) -> "ParamSet":
        return cls(space, [BasicSet.universe(space)])

    # -- queries -----------------------------------------------------------

    @perf.timed("sets")
    def is_empty(self, context: Sequence[Constraint] = ()) -> bool:
        """True when every piece is (rationally, hence certainly) empty."""
        return all(basic_set_is_empty(piece, context) for piece in self.pieces)

    def is_obviously_empty(self) -> bool:
        return not self.pieces

    def single_piece(self) -> BasicSet:
        """The unique basic set of a one-piece union (raises otherwise)."""
        if len(self.pieces) != 1:
            raise ValueError(f"expected exactly one piece, found {len(self.pieces)}")
        return self.pieces[0]

    def contains_point(self, point: Sequence[int], params: Mapping[str, int]) -> bool:
        return any(piece.contains_point(point, params) for piece in self.pieces)

    @perf.timed("sets")
    def enumerate_points(self, params: Mapping[str, int], bound: int = 2000) -> list[tuple[int, ...]]:
        """Enumerate integer points for concrete parameters (duplicates removed)."""
        seen: dict[tuple[int, ...], None] = {}
        for piece in self.pieces:
            for point in piece.enumerate_points(params, bound):
                seen[point] = None
        return list(seen)

    # -- algebra -----------------------------------------------------------

    @perf.timed("sets")
    def union(self, other: "ParamSet") -> "ParamSet":
        if other.space.dims != self.space.dims:
            raise ValueError("union of sets with different dimensions")
        space = self.space.with_params(other.space.params)
        return ParamSet(space, self.pieces + other.pieces)

    @perf.timed("sets")
    def intersect(self, other: "ParamSet") -> "ParamSet":
        if other.space.dims != self.space.dims:
            raise ValueError("intersection of sets with different dimensions")
        space = self.space.with_params(other.space.params)
        pieces = [a.intersect(b) for a in self.pieces for b in other.pieces]
        return ParamSet(space, pieces)

    @perf.timed("sets")
    def subtract(self, other: "ParamSet") -> "ParamSet":
        """Set difference ``self - other``.

        The complement of a conjunction is a union of negated constraints;
        negation of ``e >= 0`` over the integers is ``-e - 1 >= 0``.
        Equalities are split before negation.
        """
        result_pieces = list(self.pieces)
        for cut in other.pieces:
            negations = _negate_basic(cut)
            new_pieces = []
            for piece in result_pieces:
                for negated in negations:
                    candidate = piece.add_constraints(negated)
                    if not candidate.has_trivially_false_constraint():
                        new_pieces.append(candidate)
            result_pieces = new_pieces
        return ParamSet(self.space, result_pieces)

    @perf.timed("sets")
    def coalesce(self, context: Sequence[Constraint] = ()) -> "ParamSet":
        """Drop pieces that are rationally empty (cheap cleanup)."""
        kept = [p for p in self.pieces if not basic_set_is_empty(p, context)]
        return ParamSet(self.space, kept)

    @perf.timed("sets")
    def project_onto(self, dims: Sequence[str]) -> "ParamSet":
        """Project onto the named dims, eliminating all others."""
        to_remove = [d for d in self.space.dims if d not in dims]
        projected = [project_out(piece, to_remove) for piece in self.pieces]
        if projected:
            space = projected[0].space
        else:
            space = Space(self.space.tuple_name, tuple(dims), self.space.params)
        return ParamSet(space, projected)

    def fix_dim(self, dim_name: str, value) -> "ParamSet":
        pieces = [piece.fix_dim(dim_name, value) for piece in self.pieces]
        space = pieces[0].space if pieces else self.space
        return ParamSet(space, pieces)

    def with_tuple_name(self, name: str) -> "ParamSet":
        return ParamSet(
            self.space.rename_tuple(name), [p.with_tuple_name(name) for p in self.pieces]
        )

    def rename_dims(self, mapping: Mapping[str, str]) -> "ParamSet":
        pieces = [p.rename_dims(mapping) for p in self.pieces]
        space = pieces[0].space if pieces else Space(
            self.space.tuple_name,
            tuple(mapping.get(d, d) for d in self.space.dims),
            self.space.params,
        )
        return ParamSet(space, pieces)

    def __repr__(self) -> str:
        if not self.pieces:
            return f"{{ {self.space.tuple_name}[...] : false }}"
        return " union ".join(repr(p) for p in self.pieces)


def _negate_basic(basic: BasicSet) -> list[list[Constraint]]:
    """Return the disjunction of constraint-lists describing the complement."""
    negations: list[list[Constraint]] = []
    for constraint in basic.constraints:
        if constraint.kind == GE:
            negations.append([Constraint(-constraint.expr - 1, GE)])
        else:
            negations.append([Constraint(constraint.expr - 1, GE)])
            negations.append([Constraint(-constraint.expr - 1, GE)])
    if not negations:
        # Complement of the universe is empty: return a single false branch.
        from .affine import LinExpr

        negations.append([Constraint(LinExpr.constant(-1), GE)])
    return negations
