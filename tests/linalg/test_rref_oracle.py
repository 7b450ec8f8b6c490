"""The fraction-free integer RREF against the textbook ``Fraction`` loop.

:func:`repro.linalg.rational.rref` reduces over integers: it clears each
row's denominators, runs fraction-free Gauss-Jordan and divides by the pivot
only when converting back.  RREF is unique and invariant under row scaling,
so the result must equal plain Gauss-Jordan over ``Fraction`` exactly —
the oracle below — entry for entry, pivots included.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.linalg import rref, to_fraction_matrix
from repro.linalg.rational import Matrix, _rref_fraction_free


def rref_oracle(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Textbook Gauss-Jordan over ``Fraction``."""
    if not a:
        return tuple(), ()
    rows = [list(r) for r in a]
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


def _entry(rng: random.Random, fractional: bool) -> Fraction:
    if fractional and rng.random() < 0.4:
        return Fraction(rng.randint(-7, 7), rng.randint(1, 6))
    return Fraction(rng.randint(-4, 4))


def _random_matrix(rng: random.Random, fractional: bool) -> Matrix:
    n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 6)
    rows = [[_entry(rng, fractional) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.5:
        # Rank-deficient: replace a row by a combination of two others.
        i, j = rng.randrange(n_rows), rng.randrange(n_rows)
        k = rng.randrange(n_rows)
        a, b = _entry(rng, fractional), _entry(rng, fractional)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    if rng.random() < 0.2:
        column = rng.randrange(n_cols)
        for row in rows:
            row[column] = Fraction(0)
    return to_fraction_matrix(rows)


@pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
def test_integer_rref_equals_the_oracle(fractional):
    rng = random.Random(20261017 + fractional)
    deficient = 0
    for case in range(400):
        matrix = _random_matrix(rng, fractional)
        reduced, pivots = _rref_fraction_free(matrix)
        expected, expected_pivots = rref_oracle(matrix)
        assert (reduced, pivots) == (expected, expected_pivots), f"case {case}: {matrix}"
        assert all(type(x) is Fraction for row in reduced for x in row)
        deficient += len(pivots) < min(len(matrix), len(matrix[0]))
    assert deficient >= 50


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, 0, 0]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
        [[0, 2, 4], [0, 1, 2], [0, 0, 0]],
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]],
        [[10**30, 1], [1, 10**30]],
        [[300, 200], [200, 300]],
    ],
    ids=["empty", "zero-row", "zero", "rank-1", "zero-column", "fractional", "huge", "beyond-small-table"],
)
def test_edge_cases_equal_the_oracle(rows):
    matrix = to_fraction_matrix(rows)
    assert _rref_fraction_free(matrix) == rref_oracle(matrix)
    reduced, pivots = rref(matrix)
    assert (reduced, tuple(pivots)) == rref_oracle(matrix)
