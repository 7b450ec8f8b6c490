"""Textbook Gauss-Jordan over ``Fraction``, kept as an oracle.

:class:`repro.linalg.Subspace` reduces integer rows fraction-free and reads
kernels off as orthogonal complements.  RREF is unique, so the nonzero rows
of the plain ``Fraction`` elimination below must equal
:attr:`Subspace.basis` exactly, and its null space must span the kernels.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def to_fraction_matrix(rows) -> Matrix:
    """An immutable ``Fraction`` matrix; rows must have one length."""
    matrix = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("ragged matrix: rows have different lengths")
    return matrix


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form (all rows, zero rows last) and pivot columns."""
    rows = [list(row) for row in to_fraction_matrix(rows)]
    if not rows:
        return (), ()
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot_val = rows[r][c]
        rows[r] = [x / pivot_val for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [rows[i][j] - factor * rows[r][j] for j in range(n_cols)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def nullspace(rows, n_cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x in Q^n_cols : row . x = 0 for every row}, one vector per free column."""
    reduced, pivots = rref(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vector = [Fraction(0)] * n_cols
        vector[free] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            vector[pivot_col] = -reduced[row_idx][free]
        basis.append(tuple(vector))
    return basis
