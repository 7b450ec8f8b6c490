"""Linear subspaces of Q^d.

The kernels of the geometric projections used in the Brascamp-Lieb reasoning
(Sec. 5.1 of the paper) are linear subspaces of the iteration space.  The
subgroup lattice of Lemma 3.12 is, in our rational setting, the closure of
those kernels under subspace sum and intersection.

A :class:`Subspace` is stored in one canonical integer form: the rows of the
reduced row echelon form of any spanning set, each scaled to a primitive
integer row with a positive pivot.  Two equal subspaces have equal rows, so
they compare and hash identically, and sum and intersection are fraction-free
integer eliminations (RREF is invariant under row scaling, so the scaled rows
carry exactly the information of the ``Fraction`` RREF, which stays
available as :attr:`Subspace.basis`).  This is the package's only
elimination: the kernel of an affine map is the orthogonal complement of the
row space of its linear part (:meth:`Subspace.complement`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .. import perf

Row = tuple[Fraction, ...]
IntRows = tuple[tuple[int, ...], ...]


def _integer_row(vector: Sequence, dim_ambient: int) -> list[int]:
    """The vector scaled by the lcm of its denominators (same span, integer entries)."""
    if len(vector) != dim_ambient:
        raise ValueError(f"vector of length {len(vector)} in ambient dimension {dim_ambient}")
    if all(type(x) is int for x in vector):
        return list(vector)
    entries = [Fraction(x) for x in vector]
    den = lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries]


def _reduce(rows: list[list[int]]) -> IntRows:
    """Canonical rows of the row space of ``rows`` (consumed).

    Fraction-free Gauss-Jordan: each elimination step combines two integer
    rows and divides out their content, so entries stay small.  Each pivot
    row ends up a multiple of the matching RREF row; dividing it by its
    content and fixing the pivot's sign makes it the primitive multiple.
    """
    n_rows = len(rows)
    if not n_rows:
        return ()
    n_cols = len(rows[0])
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for i in range(r, n_rows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pivot = prow[c]
        for i in range(n_rows):
            factor = rows[i][c]
            if factor and i != r:
                combined = [x * pivot - factor * y for x, y in zip(rows[i], prow)]
                g = gcd(*combined)
                rows[i] = [x // g for x in combined] if g > 1 else combined
        r += 1
    canonical = []
    for row in rows[:r]:
        g = gcd(*row)
        if next(x for x in row if x) < 0:
            g = -g
        canonical.append(tuple(x // g for x in row) if g != 1 else tuple(row))
    # Rows past the last pivot are identically zero: they are zero at every
    # pivot column (eliminated) and at every skipped column (all candidate
    # rows were zero there, and row combinations preserve that).
    return tuple(canonical)


def _complement(rows: IntRows, dim_ambient: int) -> IntRows:
    """Canonical rows of the orthogonal complement {y : row . y = 0 for every row}.

    ``rows`` are canonical, so every pivot column is zero in the other rows
    and each free column ``f`` gives one null vector: 1 at ``f`` and
    ``-row[f] / row[pivot]`` at each pivot, scaled to integers.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    pivot_set = set(pivots)
    vectors = []
    for free in range(dim_ambient):
        if free in pivot_set:
            continue
        scale = lcm(*(row[p] for row, p in zip(rows, pivots) if row[free]))
        vector = [0] * dim_ambient
        vector[free] = scale
        for row, p in zip(rows, pivots):
            if row[free]:
                vector[p] = -row[free] * (scale // row[p])
        vectors.append(vector)
    return _reduce(vectors)


class Subspace:
    """A linear subspace of Q^d, canonically represented by primitive integer RREF rows."""

    __slots__ = ("dim_ambient", "rows", "_annihilator", "_basis", "_hash")

    def __init__(self, dim_ambient: int, vectors: Iterable[Sequence] = ()):
        self.dim_ambient = dim_ambient
        self.rows: IntRows = _reduce([_integer_row(v, dim_ambient) for v in vectors])
        self._annihilator: IntRows | None = None
        self._basis: tuple[Row, ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _canonical(
        cls, dim_ambient: int, rows: IntRows, annihilator: IntRows | None = None
    ) -> "Subspace":
        """Wrap rows that are already canonical (no elimination)."""
        subspace = cls.__new__(cls)
        subspace.dim_ambient = dim_ambient
        subspace.rows = rows
        subspace._annihilator = annihilator
        subspace._basis = None
        subspace._hash = None
        return subspace

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim_ambient: int) -> "Subspace":
        """The trivial subspace {0}."""
        return cls._canonical(dim_ambient, ())

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        """The whole ambient space Q^d."""
        rows = tuple(
            tuple(int(i == j) for j in range(dim_ambient)) for i in range(dim_ambient)
        )
        return cls._canonical(dim_ambient, rows, annihilator=())

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
        return len(self.rows)

    @property
    def basis(self) -> tuple[Row, ...]:
        """The ``Fraction`` RREF basis (each canonical row divided by its pivot)."""
        basis = self._basis
        if basis is None:
            basis = []
            for row in self.rows:
                pivot = next(x for x in row if x)
                basis.append(tuple(Fraction(x, pivot) for x in row))
            basis = self._basis = tuple(basis)
        return basis

    @property
    def annihilator(self) -> IntRows:
        """Canonical rows of the orthogonal complement over Q (cached)."""
        annihilator = self._annihilator
        if annihilator is None:
            annihilator = self._annihilator = _complement(self.rows, self.dim_ambient)
        return annihilator

    def complement(self) -> "Subspace":
        """The orthogonal complement {y : v . y = 0 for every v in the subspace}.

        Applied to the row space of a matrix, this is the matrix's null space.
        """
        return Subspace._canonical(self.dim_ambient, self.annihilator, self.rows)

    def is_zero(self) -> bool:
        """True for the trivial subspace."""
        return not self.rows

    def contains_vector(self, vector: Sequence) -> bool:
        """True when the vector lies in the subspace (is orthogonal to its complement)."""
        v = _integer_row(vector, self.dim_ambient)
        return all(sum(a * x for a, x in zip(row, v)) == 0 for row in self.annihilator)

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a sub-subspace of this one."""
        return all(self.contains_vector(v) for v in other.rows)

    # -- lattice operations ------------------------------------------------

    def content_key(self) -> tuple:
        """Memo key: ambient dimension plus the canonical integer rows."""
        return (self.dim_ambient, self.rows)

    @perf.timed("linalg")
    def sum(self, other: "Subspace") -> "Subspace":
        """Subspace sum (join): one elimination of the stacked canonical rows."""
        self._check_ambient(other)
        if not other.rows:
            return self
        if not self.rows:
            return other
        stacked = [list(row) for row in self.rows]
        stacked += [list(row) for row in other.rows]
        return Subspace._canonical(self.dim_ambient, _reduce(stacked))

    @perf.timed("linalg")
    def intersection(self, other: "Subspace") -> "Subspace":
        """Subspace intersection (meet), as ``U cap W = (U^perp + W^perp)^perp``.

        The stacked annihilators reduce to the result's own annihilator, and
        its rows are read off as the complement of that.
        """
        self._check_ambient(other)
        n = self.dim_ambient
        if not self.rows or not other.rows:
            return Subspace.zero(n)
        stacked = [list(row) for row in self.annihilator]
        stacked += [list(row) for row in other.annihilator]
        annihilator = _reduce(stacked)
        return Subspace._canonical(n, _complement(annihilator, n), annihilator)

    def sum_dim(self, other: "Subspace") -> int:
        """dim(self + other), without building the sum.

        ``other``'s rows leave this subspace exactly along its annihilator,
        so dim(U + W) = dim U + rank of the products of W's rows with U^perp.
        """
        self._check_ambient(other)
        products = [
            [sum(a * w for a, w in zip(normal, row)) for normal in self.annihilator]
            for row in other.rows
        ]
        return self.dim + len(_reduce(products))

    def projection_rank(self, kernel: "Subspace") -> int:
        """rank(phi(H)) where phi is any linear map with kernel ``kernel`` and H = self.

        By rank-nullity on the restriction of phi to H,
        rank(phi(H)) = dim(H) - dim(H cap ker(phi)), and by the dimension
        formula that is dim(H + ker(phi)) - dim(ker(phi)).
        """
        return kernel.sum_dim(self) - kernel.dim

    # -- dunder ------------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.dim_ambient != other.dim_ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim_ambient == other.dim_ambient and self.rows == other.rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.content_key())
        return h

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(str(x) for x in row) + ")" for row in self.basis
        )
        return f"Subspace(dim={self.dim}, ambient={self.dim_ambient}, basis=[{rows}])"
