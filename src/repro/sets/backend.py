"""The vectorised int64 kernel for concrete point enumeration.

:func:`enumerate_points` enumerates the integer points of a basic set over a
bounded candidate grid (called by
:meth:`repro.sets.basic_set.BasicSet.enumerate_points`).  It reproduces the
recursive enumeration loop's output exactly — identical points in identical
order — or *declines* by returning ``None``, in which case the caller runs
the loop instead.  The decline boundary is the set of inputs int64 cannot
represent exactly or the grid cannot hold: fractional coefficients, possible
int64 overflow, grids past :data:`ENUMERATION_GRID_LIMIT`, free names and
non-integer parameter values.  Fourier-Motzkin elimination has no kernel: it
is one exact integer loop in :mod:`repro.sets.fourier_motzkin`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .basic_set import EQ, BasicSet, _ceil, _floor

#: Largest candidate grid the vectorised point enumeration will materialise.
ENUMERATION_GRID_LIMIT = 200_000

#: int64 safety margin for the enumeration's matrix products.
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class SetEngine:
    """Identifies the set-algebra engine in run metadata and profiles."""

    name: str = "numpy"


_ENGINE = SetEngine()


def get_backend() -> SetEngine:
    """The set-algebra engine (there is one; its ``name`` is ``"numpy"``)."""
    return _ENGINE


def _int_or_none(value: Fraction) -> int | None:
    return int(value) if value.denominator == 1 else None


# -- concrete point enumeration ------------------------------------------------


def enumerate_points(
    basic_set: BasicSet, params: Mapping[str, int], bound: int
) -> list[tuple[int, ...]] | None:
    """All integer points for concrete ``params``, or decline.

    Points come in the recursive enumeration's order: ascending
    lexicographic in :meth:`BasicSet._enumeration_order`.
    """
    dims = basic_set.space.dims
    if not dims:
        return None
    for value in params.values():
        if not isinstance(value, int):
            return None
    order = basic_set._enumeration_order()
    known = set(params)

    # Static per-dimension bounds from constraints over one dim + params.
    los: list[int] = []
    his: list[int] = []
    for dim in order:
        lo, hi = -bound, bound
        for constraint in basic_set.constraints:
            coeff = constraint.expr.coeff(dim)
            if coeff == 0:
                continue
            if constraint.expr.names() - {dim} - known:
                continue
            rest = constraint.expr.const
            for name, value in constraint.expr.coeffs.items():
                if name != dim:
                    rest += value * params[name]
            boundary = Fraction(-rest, coeff)
            if constraint.kind == EQ:
                lo = max(lo, _ceil(boundary))
                hi = min(hi, _floor(boundary))
            elif coeff > 0:
                lo = max(lo, _ceil(boundary))
            else:
                hi = min(hi, _floor(boundary))
        if lo > hi:
            return []
        los.append(lo)
        his.append(hi)

    size = 1
    for lo, hi in zip(los, his):
        size *= hi - lo + 1
        if size > ENUMERATION_GRID_LIMIT:
            return None

    # Constraint matrix over the enumeration order (+ folded params).
    column = {dim: idx for idx, dim in enumerate(order)}
    A = np.zeros((len(basic_set.constraints), len(order)), dtype=np.int64)
    consts = np.zeros(len(basic_set.constraints), dtype=np.int64)
    is_eq = np.zeros(len(basic_set.constraints), dtype=bool)
    largest = 0
    for row, constraint in enumerate(basic_set.constraints):
        is_eq[row] = constraint.kind == EQ
        const = _int_or_none(constraint.expr.const)
        if const is None:
            return None
        for name, frac in constraint.expr.coeffs.items():
            value = _int_or_none(frac)
            if value is None:
                return None
            if name in column:
                A[row, column[name]] = value
                largest = max(largest, abs(value))
            elif name in params:
                const += value * params[name]
            else:
                return None  # free name: let the loop raise KeyError
        consts[row] = const
        largest = max(largest, abs(const))
    if largest * (bound + 1) * (len(order) + 1) >= _INT64_SAFE:
        return None

    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([axis.reshape(-1) for axis in mesh], axis=1)
    values = pts @ A.T + consts[None, :]
    mask = np.ones(pts.shape[0], dtype=bool)
    if is_eq.any():
        mask &= (values[:, is_eq] == 0).all(axis=1)
    if (~is_eq).any():
        mask &= (values[:, ~is_eq] >= 0).all(axis=1)
    selected = pts[mask]
    reorder = [column[d] for d in dims]
    return [tuple(row) for row in selected[:, reorder].tolist()]

