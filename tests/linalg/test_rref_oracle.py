"""The integer subspace elimination against the textbook ``Fraction`` loop.

:class:`repro.linalg.Subspace` reduces over integers: it clears each row's
denominators, runs fraction-free Gauss-Jordan and keeps primitive rows, and
:attr:`Subspace.basis` divides each by its pivot.  RREF is unique and
invariant under row scaling, so that basis must equal the nonzero rows of
plain Gauss-Jordan over ``Fraction`` — the oracle in ``reference_linalg`` —
entry for entry.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from reference_linalg import Matrix, rref, to_fraction_matrix

from repro.linalg import Subspace


def _oracle_basis(matrix: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    reduced, pivots = rref(matrix)
    return reduced[: len(pivots)]


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
        basis = Subspace(len(matrix[0]), matrix).basis
        assert basis == _oracle_basis(matrix), f"case {case}: {matrix}"
        assert all(type(x) is Fraction for row in basis for x in row)
        deficient += len(basis) < min(len(matrix), len(matrix[0]))
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
    ids=["empty", "zero-row", "zero", "rank-1", "zero-column", "fractional", "huge", "non-unit-pivot"],
)
def test_edge_cases_equal_the_oracle(rows):
    dim = len(rows[0]) if rows else 3
    assert Subspace(dim, rows).basis == _oracle_basis(rows)
