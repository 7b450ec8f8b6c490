"""Exact linear algebra over the rationals.

The Brascamp-Lieb machinery of IOLB (Sec. 3.3 and Lemma 3.12 of the paper)
needs exact ranks, null spaces and subspace arithmetic for the kernels of the
geometric projections attached to DFG-paths.  Floating point is not an option
(a rank decision changes the derived bound), so everything here works with
``fractions.Fraction``.

Matrices are represented as tuples of tuples of ``Fraction`` — immutable and
hashable, which makes them usable as dictionary keys and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .. import perf
from ..sets.memo import MemoCache, register

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]

_ZERO = Fraction(0)

# Shared immutable Fraction objects for small integers: the fraction-free
# RREF converts ~10^6 integer entries back to Fractions per suite run, and
# almost all of them are small.
_SMALL_RANGE = 128
_SMALL_FRACTIONS = tuple(Fraction(i - _SMALL_RANGE) for i in range(2 * _SMALL_RANGE + 1))

# Matrices are immutable and hashable, so RREF results are memoised under
# the matrix itself (see repro.sets.memo for the key discipline).  Null
# spaces, ranks and solutions are read off the memoised RREF.
_RREF_CACHE = register(MemoCache("linalg.rref"))


def to_fraction_matrix(rows: Iterable[Sequence]) -> Matrix:
    """Normalise an iterable of numeric rows into an immutable Fraction matrix."""
    out = []
    width = None
    for row in rows:
        frow = tuple(x if type(x) is Fraction else Fraction(x) for x in row)
        if width is None:
            width = len(frow)
        elif len(frow) != width:
            raise ValueError("ragged matrix: rows have different lengths")
        out.append(frow)
    return tuple(out)


def zeros(n_rows: int, n_cols: int) -> Matrix:
    """Return an ``n_rows`` x ``n_cols`` zero matrix."""
    return tuple(tuple(Fraction(0) for _ in range(n_cols)) for _ in range(n_rows))


def identity(n: int) -> Matrix:
    """Return the ``n`` x ``n`` identity matrix."""
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product ``a @ b``."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    if not b:
        return tuple(tuple() for _ in a)
    n_cols = len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(n_cols))
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v: Sequence) -> Row:
    """Exact matrix-vector product."""
    vf = tuple(Fraction(x) for x in v)
    if a and len(a[0]) != len(vf):
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(sum((row[k] * vf[k] for k in range(len(vf))), Fraction(0)) for row in a)


def transpose(a: Matrix) -> Matrix:
    """Matrix transpose."""
    if not a:
        return tuple()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def _matrix_key(a: Matrix) -> tuple:
    """Cheap memo key: ``(numerator, denominator)`` int pairs.

    Keying on the Fraction matrix itself would pay ``Fraction.__hash__`` —
    a modular inverse — per entry per lookup; int tuples hash for free.
    """
    return tuple(tuple((x.numerator, x.denominator) for x in row) for row in a)


@perf.timed("linalg")
def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (memoised).

    Returns the reduced matrix together with the list of pivot column indices.
    """
    reduced, pivots = _RREF_CACHE.get_or_compute(_matrix_key(a), lambda: _rref_fraction_free(a))
    return reduced, list(pivots)


def _rref_fraction_free(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    if not a:
        return tuple(), ()
    # The RREF of a matrix is invariant under scaling rows by non-zero
    # constants (the row space and row count are unchanged), so every input
    # can be reduced over the integers: clear each row's denominators, run
    # fraction-free Gauss-Jordan on machine/big ints — far cheaper than
    # Fraction arithmetic, which pays a gcd per operation — and divide by
    # the pivot only when converting the result back to Fractions.
    rows: list[list[int]] = []
    for row in a:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pivot_val = prow[c]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                combined = [x * pivot_val - factor * y for x, y in zip(rows[i], prow)]
                g = gcd(*combined)
                rows[i] = [x // g for x in combined] if g > 1 else combined
        pivots.append(c)
        r += 1
    reduced = []
    for i, row in enumerate(rows):
        if i < len(pivots):
            pivot_val = row[pivots[i]]
            if pivot_val == 1:
                # Integer entries: use the shared small-Fraction table.
                reduced.append(
                    tuple(
                        _SMALL_FRACTIONS[x + _SMALL_RANGE]
                        if -_SMALL_RANGE <= x <= _SMALL_RANGE
                        else Fraction(x)
                        for x in row
                    )
                )
            else:
                reduced.append(tuple(Fraction(x, pivot_val) for x in row))
        else:
            # Non-pivot rows are identically zero: they are zero at every
            # pivot column (eliminated) and at every skipped column (all
            # candidate rows were zero there when the column was skipped,
            # and row combinations preserve that).
            reduced.append(tuple(_ZERO for _ in row))
    return tuple(reduced), tuple(pivots)


def rank(a: Matrix) -> int:
    """Rank of the matrix over Q."""
    _, pivots = rref(a)
    return len(pivots)


@perf.timed("linalg")
def nullspace(a: Matrix) -> list[Row]:
    """Basis of the right null space {x : a @ x = 0} over Q.

    Returns a (possibly empty) list of basis vectors.
    """
    if not a:
        return []
    n_cols = len(a[0])
    reduced, pivots = rref(a)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis: list[Row] = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -reduced[row_idx][free]
        basis.append(tuple(vec))
    return basis


def row_space_basis(a: Matrix) -> list[Row]:
    """Basis of the row space of the matrix (the non-zero rows of its RREF)."""
    reduced, pivots = rref(a)
    return [reduced[i] for i in range(len(pivots))]


def solve(a: Matrix, b: Sequence) -> Row | None:
    """Solve ``a @ x = b`` exactly.  Returns one solution or None if inconsistent."""
    if not a:
        return tuple() if all(Fraction(x) == 0 for x in b) else None
    n_cols = len(a[0])
    bf = [Fraction(x) for x in b]
    augmented = tuple(tuple(list(a[i]) + [bf[i]]) for i in range(len(a)))
    reduced, pivots = rref(augmented)
    # Inconsistent if a pivot landed in the augmented column.
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for row_idx, pivot_col in enumerate(pivots):
        x[pivot_col] = reduced[row_idx][n_cols]
    return tuple(x)


def is_integer_matrix(a: Matrix) -> bool:
    """True when every entry is an integer."""
    return all(entry.denominator == 1 for row in a for entry in row)
