"""Affine functions between named spaces.

Flow-dependence edges of a DFG (Sec. 3.4 of the paper) relate each *sink*
instance to the unique *source* instance it reads.  We therefore represent an
edge relation by its inverse — an affine function from the sink space to the
source space — together with the sink sub-domain on which it applies.  This is
exactly the information needed to classify DFG-paths as broadcast paths or
chain circuits and to extract their projection kernels (Def. 5.1): a kernel
is the orthogonal complement of the row space of the map's linear part,
computed by the integer :class:`~repro.linalg.Subspace` elimination.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..linalg import Subspace
from .affine import LinExpr
from .basic_set import BasicSet, Constraint, EQ
from .fourier_motzkin import eliminate_variables
from .pset import ParamSet
from .space import Space


class AffineFunction:
    """An affine map ``x in domain_space  |->  target_tuple[expr_1(x), ...]``."""

    __slots__ = ("domain_space", "target_tuple", "exprs")

    def __init__(self, domain_space: Space, target_tuple: str, exprs: Sequence[LinExpr]):
        self.domain_space = domain_space
        self.target_tuple = target_tuple
        self.exprs: tuple[LinExpr, ...] = tuple(exprs)
        for expr in self.exprs:
            unknown = expr.names() - set(domain_space.dims) - set(domain_space.params)
            if unknown:
                raise ValueError(f"expression uses unknown names {unknown}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, space: Space) -> "AffineFunction":
        return cls(space, space.tuple_name, [LinExpr.var(d) for d in space.dims])

    # -- basic queries -----------------------------------------------------

    @property
    def target_arity(self) -> int:
        return len(self.exprs)

    def kernel(self) -> Subspace:
        """Kernel of the linear part, as a subspace of the domain space.

        A map into a 0-dimensional space (``A[]``) has no rows, so its kernel
        is the whole domain, as for any other constant map.
        """
        dims = self.domain_space.dims
        rows = [[expr.coeff(d) for d in dims] for expr in self.exprs]
        return Subspace(len(dims), rows).complement()

    def is_translation(self) -> bool:
        """True when the map sends x to x + delta within the same-arity space."""
        if self.target_arity != self.domain_space.dim:
            return False
        for i, expr in enumerate(self.exprs):
            for j, dim in enumerate(self.domain_space.dims):
                if expr.coeff(dim) != (1 if i == j else 0):
                    return False
            # Offsets must be numeric (parametric shifts are not chain circuits).
            if any(name in self.domain_space.params for name in expr.names()):
                offset_names = expr.names() - set(self.domain_space.dims)
                if offset_names:
                    return False
        return True

    def translation_vector(self) -> tuple[int, ...]:
        """The offset delta of a translation map (raises if not a translation)."""
        if not self.is_translation():
            raise ValueError("not a translation map")
        return tuple(expr.const for expr in self.exprs)

    # -- application -------------------------------------------------------

    def apply_to_point(self, point: Sequence[int], params: Mapping[str, int]) -> tuple[int, ...]:
        values = dict(params)
        values.update(zip(self.domain_space.dims, point))
        return tuple(expr.evaluate(values) for expr in self.exprs)

    def compose_after(self, inner: "AffineFunction") -> "AffineFunction":
        """Return ``self o inner`` (first apply ``inner``, then ``self``).

        ``inner`` maps X -> Y and ``self`` maps Y -> Z; the result maps X -> Z.
        The dimension names of ``self``'s domain are positionally bound to the
        component expressions of ``inner``.
        """
        if len(inner.exprs) != self.domain_space.dim:
            raise ValueError("arity mismatch in composition")
        mapping = dict(zip(self.domain_space.dims, inner.exprs))
        exprs = [expr.substitute(mapping) for expr in self.exprs]
        return AffineFunction(inner.domain_space, self.target_tuple, exprs)

    def preimage_constraints(self, target_set: BasicSet, target_dims: Sequence[str]) -> list[Constraint]:
        """Constraints (over the domain space) of the preimage of ``target_set``."""
        mapping = dict(zip(target_dims, self.exprs))
        return [c.substitute(mapping) for c in target_set.constraints]

    def image_of(self, domain: ParamSet, target_space: Space) -> ParamSet:
        """Image of a set under the function (rational over-approximation)."""
        if tuple(domain.space.dims) != tuple(self.domain_space.dims):
            raise ValueError("domain space mismatch in image computation")
        pieces = []
        for piece in domain.pieces:
            pieces.append(self._image_of_basic(piece, target_space))
        return ParamSet(target_space.with_params(domain.space.params), pieces)

    def _image_of_basic(self, piece: BasicSet, target_space: Space) -> BasicSet:
        # Rename domain dims to fresh names so they cannot collide with the
        # target dimension names (self-maps reuse the same names).
        fresh = {d: f"__src_{i}" for i, d in enumerate(self.domain_space.dims)}
        renamed_piece = piece.rename_dims(fresh)
        renamed_exprs = [
            expr.substitute({d: LinExpr.var(fresh[d]) for d in self.domain_space.dims})
            for expr in self.exprs
        ]
        constraints = list(renamed_piece.constraints)
        for target_dim, expr in zip(target_space.dims, renamed_exprs):
            constraints.append(Constraint(LinExpr.var(target_dim) - expr, EQ))
        eliminated = eliminate_variables(constraints, list(fresh.values()))
        space = target_space.with_params(piece.space.params)
        return BasicSet(space, eliminated)

    def __repr__(self) -> str:
        exprs = ", ".join(repr(e) for e in self.exprs)
        dims = ", ".join(self.domain_space.dims)
        return (
            f"{{ {self.domain_space.tuple_name}[{dims}] -> {self.target_tuple}[{exprs}] }}"
        )
