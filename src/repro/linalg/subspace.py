"""Linear subspaces of Q^d.

The kernels of the geometric projections used in the Brascamp-Lieb reasoning
(Sec. 5.1 of the paper) are linear subspaces of the iteration space.  The
subgroup lattice of Lemma 3.12 is, in our rational setting, the closure of
those kernels under subspace sum and intersection.

A :class:`Subspace` stores a canonical basis (the reduced row echelon form of
any spanning set), so two equal subspaces compare and hash identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .. import perf
from ..sets.memo import MemoCache, register
from .rational import Matrix, Row, nullspace, rank, rref, to_fraction_matrix

# Sum / intersection results keyed on the (order-normalised) operand bases.
# Subspaces are immutable and canonical, so sharing result objects is safe
# and both operations are symmetric up to canonicalisation.
_PAIR_CACHE = register(MemoCache("linalg.subspace_ops"))


class Subspace:
    """A linear subspace of Q^d, canonically represented by an RREF basis."""

    __slots__ = ("dim_ambient", "basis", "_key", "_hash")

    def __init__(self, dim_ambient: int, vectors: Iterable[Sequence] = ()):
        self.dim_ambient = dim_ambient
        matrix = to_fraction_matrix(vectors)
        for row in matrix:
            if len(row) != dim_ambient:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {dim_ambient}"
                )
        reduced, pivots = rref(matrix)
        self.basis: tuple[Row, ...] = tuple(reduced[i] for i in range(len(pivots)))
        self._key: tuple | None = None
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim_ambient: int) -> "Subspace":
        """The trivial subspace {0}."""
        return cls(dim_ambient, ())

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        """The whole ambient space Q^d."""
        vectors = []
        for i in range(dim_ambient):
            vec = [Fraction(0)] * dim_ambient
            vec[i] = Fraction(1)
            vectors.append(vec)
        return cls(dim_ambient, vectors)

    @classmethod
    def span(cls, vectors: Iterable[Sequence], dim_ambient: int | None = None) -> "Subspace":
        """Subspace spanned by the given vectors."""
        vectors = [list(v) for v in vectors]
        if dim_ambient is None:
            if not vectors:
                raise ValueError("cannot infer ambient dimension from an empty span")
            dim_ambient = len(vectors[0])
        return cls(dim_ambient, vectors)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension (rank) of the subspace."""
        return len(self.basis)

    def is_zero(self) -> bool:
        """True for the trivial subspace."""
        return not self.basis

    def contains_vector(self, vector: Sequence) -> bool:
        """True when the vector lies in the subspace."""
        if self.is_zero():
            return all(Fraction(x) == 0 for x in vector)
        stacked = to_fraction_matrix(list(self.basis) + [list(vector)])
        return rank(stacked) == self.dim

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a sub-subspace of this one."""
        return all(self.contains_vector(v) for v in other.basis)

    # -- lattice operations ------------------------------------------------

    def content_key(self) -> tuple:
        """Cheap memo key: ambient dimension plus ``(numerator, denominator)``
        int pairs of the canonical basis.

        Fraction hashing computes a modular inverse per entry, so keying the
        subspace caches on the basis itself dominated cache lookups; int
        tuples hash for free.  The key is cached on the object (it is frozen
        after construction).
        """
        key = self._key
        if key is None:
            key = (
                self.dim_ambient,
                tuple(tuple((x.numerator, x.denominator) for x in row) for row in self.basis),
            )
            self._key = key
        return key

    @perf.timed("linalg")
    def sum(self, other: "Subspace") -> "Subspace":
        """Subspace sum (join): span of the union of both bases (memoised)."""
        self._check_ambient(other)
        ka, kb = self.content_key(), other.content_key()
        if kb < ka:
            ka, kb = kb, ka
        return _PAIR_CACHE.get_or_compute(
            ("sum", ka, kb),
            lambda: Subspace(self.dim_ambient, list(self.basis) + list(other.basis)),
        )

    @perf.timed("linalg")
    def intersection(self, other: "Subspace") -> "Subspace":
        """Subspace intersection (meet), via the Zassenhaus-style kernel trick.

        x in U cap W  <=>  x = sum a_i u_i = sum b_j w_j, i.e. the coefficient
        vector (a, b) lies in the kernel of the stacked matrix [U^T | -W^T].
        Results are memoised; both bases are canonical, so the result is one
        shared canonical object per unordered operand pair.
        """
        self._check_ambient(other)
        ka, kb = self.content_key(), other.content_key()
        if kb < ka:
            ka, kb = kb, ka
        return _PAIR_CACHE.get_or_compute(("cap", ka, kb), lambda: self._intersection_uncached(other))

    def _intersection_uncached(self, other: "Subspace") -> "Subspace":
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.dim_ambient)
        n = self.dim_ambient
        columns = []
        for i in range(n):
            row = [self.basis[j][i] for j in range(self.dim)]
            row += [-other.basis[j][i] for j in range(other.dim)]
            columns.append(row)
        stacked: Matrix = to_fraction_matrix(columns)
        kernel = nullspace(stacked)
        vectors = []
        for combo in kernel:
            vec = [Fraction(0)] * n
            for j in range(self.dim):
                for i in range(n):
                    vec[i] += combo[j] * self.basis[j][i]
            vectors.append(vec)
        return Subspace(self.dim_ambient, vectors)

    def projection_rank(self, kernel: "Subspace") -> int:
        """rank(phi(H)) where phi is any linear map with kernel ``kernel`` and H = self.

        By rank-nullity on the restriction of phi to H:
        rank(phi(H)) = dim(H) - dim(H cap ker(phi)).
        """
        return self.dim - self.intersection(kernel).dim

    # -- dunder ------------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.dim_ambient != other.dim_ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim_ambient == other.dim_ambient and self.basis == other.basis

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.content_key())
            self._hash = h
        return h

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(str(x) for x in row) + ")" for row in self.basis
        )
        return f"Subspace(dim={self.dim}, ambient={self.dim_ambient}, basis=[{rows}])"
