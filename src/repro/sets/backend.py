"""Vectorised int64 kernels for the constraint-matrix inner loops.

Two hot loops of the set algebra run as numpy matrix kernels:

* :func:`fm_combine` — the Fourier-Motzkin pair combination, the
  trivially-true redundancy filter on combined rows and the per-row gcd
  canonicalisation (called by
  :func:`repro.sets.fourier_motzkin.eliminate_variable`);
* :func:`enumerate_points` — concrete point enumeration over a bounded
  candidate grid (called by :meth:`repro.sets.basic_set.BasicSet.enumerate_points`).

Each kernel reproduces its loop counterpart's output exactly — identical
values in identical order — or *declines* by returning ``None``, in which
case the caller runs its Python loop instead.  The decline boundary is the
set of inputs int64 cannot represent exactly: fractional coefficients,
possible int64 overflow, grids past :data:`ENUMERATION_GRID_LIMIT`, free
names and non-integer parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .affine import LinExpr
from .basic_set import EQ, GE, BasicSet, Constraint, _ceil, _floor

#: Largest candidate grid the vectorised point enumeration will materialise.
ENUMERATION_GRID_LIMIT = 200_000

#: int64 safety margin for the FM combination products.
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


# -- Fourier-Motzkin pair combination ------------------------------------------


def fm_combine(
    lower: Sequence[tuple[Fraction, LinExpr]],
    upper: Sequence[tuple[Fraction, LinExpr]],
) -> list[Constraint] | None:
    """Combine every lower bound with every upper bound, or decline.

    Returns the normalised, non-trivial combined constraints in pair-loop
    order (``lower`` outer, ``upper`` inner).
    """
    if not lower or not upper:
        return []
    names: list[str] = []
    seen: set[str] = set()
    for _, rest in (*lower, *upper):
        for name in rest.coeffs:
            if name not in seen:
                seen.add(name)
                names.append(name)
    width = len(names) + 1  # coefficient columns + constant
    column = {name: idx for idx, name in enumerate(names)}

    def fill(pairs):
        matrix = np.zeros((len(pairs), width), dtype=np.int64)
        coeffs = np.empty(len(pairs), dtype=np.int64)
        for row, (coeff, rest) in enumerate(pairs):
            value = _int_or_none(coeff)
            if value is None:
                return None, None
            coeffs[row] = value
            for name, frac in rest.coeffs.items():
                entry = _int_or_none(frac)
                if entry is None:
                    return None, None
                matrix[row, column[name]] = entry
            const = _int_or_none(rest.const)
            if const is None:
                return None, None
            matrix[row, width - 1] = const
        return matrix, coeffs

    L, a = fill(lower)
    if L is None:
        return None
    U, b = fill(upper)
    if U is None:
        return None

    # Exactness guard: |combined| <= max|L|*max|b| + max|U|*max|a|.
    bound = int(np.abs(L).max(initial=0)) * int(np.abs(b).max(initial=0)) + int(
        np.abs(U).max(initial=0)
    ) * int(np.abs(a).max(initial=0))
    if bound >= _INT64_SAFE:
        return None

    # out[i*nu + j] = L[i] * -b[j] + U[j] * a[i], in pair-loop order.
    rows = L[:, None, :] * (-b)[None, :, None] + U[None, :, :] * a[:, None, None]
    rows = rows.reshape(L.shape[0] * U.shape[0], width)

    # Redundancy filter (vectorised ``is_trivially_true``): drop rows with no
    # variable part and a non-negative constant — exactly the rows the
    # loop's final pass filters out.
    coeff_part = rows[:, : width - 1]
    const_part = rows[:, width - 1]
    nontrivial = (coeff_part != 0).any(axis=1) | (const_part < 0)
    rows = rows[nontrivial]

    # Canonicalise: divide each row by the gcd of its absolute values
    # (constant included), matching ``LinExpr.scaled_to_integers`` on integer
    # rows.  Rows kept above always have a nonzero entry.
    if rows.shape[0]:
        gcds = np.gcd.reduce(np.abs(rows), axis=1)
        rows = rows // gcds[:, None]

    out = []
    for row in rows.tolist():
        coeffs = {name: value for name, value in zip(names, row) if value}
        out.append(Constraint(LinExpr(coeffs, row[-1]), GE).normalized())
    return out


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

