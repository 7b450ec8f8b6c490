"""Brascamp-Lieb exponent selection (Sec. 3.3 and 5.3 of the paper).

Given the projection kernels ``K_1..K_m`` attached to the selected DFG-paths
and the subgroup (subspace) lattice they generate, we must pick exponents
``s_1..s_m`` in [0, 1] satisfying the rank condition (2b)

    rank(H)  <=  sum_j s_j * rank(phi_j(H))      for every H in the lattice,

so that Theorem 3.10 bounds any K-bounded set E by ``prod_j |phi_j(E)|^{s_j}``.
Among all admissible exponents we first minimise ``sigma = sum_j s_j`` (a
linear program) and then, with sigma fixed, minimise the constant factor
``prod_j (s_j / beta_j)^{s_j}`` of Lemma 5.2 (a convex program solved with
SLSQP).  Exponents are rationalised when the rational candidate still
satisfies every constraint, so that common cases yield exact values such as
``1/2`` and exact bounds such as ``S**(3/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import xlogy

from ..linalg import Subspace, SubspaceLattice

RATIONALISE_MAX_DENOMINATOR = 24
FEASIBILITY_TOLERANCE = 1e-7


@dataclass
class ExponentSolution:
    """Chosen Brascamp-Lieb exponents and the resulting sigma = sum(s_j)."""

    exponents: list[Fraction]
    sigma: Fraction
    is_exact: bool


def rank_constraints(
    kernels: list[Subspace], lattice: SubspaceLattice
) -> list[tuple[list[int], int]]:
    """Linear constraints ``sum_j coeff_j * s_j >= rhs`` from the lattice elements.

    ``coeff_j = rank(phi_j(H)) = dim(H) - dim(H  cap  K_j)`` and ``rhs = dim(H)``.
    """
    constraints = []
    for subgroup in lattice.nontrivial_elements():
        coeffs = [subgroup.projection_rank(kernel) for kernel in kernels]
        constraints.append((coeffs, subgroup.dim))
    return constraints


def solve_exponents(
    kernels: list[Subspace],
    lattice: SubspaceLattice,
    betas: list[Fraction] | None = None,
) -> ExponentSolution | None:
    """Pick exponents s_1..s_m (Sec. 5.3).  Returns None when infeasible."""
    m = len(kernels)
    if m == 0:
        return None
    betas = betas if betas is not None else [Fraction(1)] * m
    constraints = rank_constraints(kernels, lattice)
    if not constraints:
        # No non-trivial subgroup: any s is admissible; s = 0 gives U = 1,
        # which is useless, so require at least the full space constraint.
        full = Subspace.full(kernels[0].dim_ambient)
        coeffs = [full.projection_rank(kernel) for kernel in kernels]
        constraints = [(coeffs, full.dim)]

    # --- Phase 1: minimise sigma = sum s_j subject to the rank constraints.
    c = np.ones(m)
    a_ub = []
    b_ub = []
    for coeffs, rhs in constraints:
        a_ub.append([-float(x) for x in coeffs])
        b_ub.append(-float(rhs))
    bounds = [(0.0, 1.0)] * m
    lp = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
    if not lp.success:
        return None
    sigma_value = float(lp.fun)

    # --- Phase 2: with sigma fixed, minimise sum_j s_j * log(s_j / beta_j).
    beta_floats = [float(b) for b in betas]

    def objective(s: np.ndarray) -> float:
        return float(sum(xlogy(s[j], max(s[j], 1e-12) / beta_floats[j]) for j in range(m)))

    def feasible(s: np.ndarray, tolerance: float = FEASIBILITY_TOLERANCE) -> bool:
        if np.any(s < -tolerance) or np.any(s > 1 + tolerance):
            return False
        if abs(float(np.sum(s)) - sigma_value) > 1e-4:
            return False
        return all(float(np.dot(coeffs, s)) >= rhs - tolerance for coeffs, rhs in constraints)

    scipy_constraints = [
        {"type": "eq", "fun": lambda s, sv=sigma_value: float(np.sum(s) - sv)},
    ]
    for coeffs, rhs in constraints:
        scipy_constraints.append(
            {
                "type": "ineq",
                "fun": lambda s, cf=coeffs, r=rhs: float(np.dot(cf, s) - r),
            }
        )

    # Vertex LP solutions are poor minimisers of the (strictly convex) phase-2
    # objective, so several starting points are tried — in particular the
    # uniform point sigma/m, which is the analytic optimum whenever it is
    # feasible (e.g. the stencil kernels with all-interfering chain paths).
    candidates: list[np.ndarray] = [np.array(lp.x)]
    uniform = np.full(m, sigma_value / m)
    if feasible(uniform):
        candidates.append(uniform)
    for start in list(candidates):
        solution = minimize(
            objective,
            start,
            bounds=bounds,
            constraints=scipy_constraints,
            method="SLSQP",
        )
        if solution.success and feasible(solution.x):
            candidates.append(solution.x)
    raw = min((c for c in candidates if feasible(c)), key=objective, default=np.array(lp.x))

    rational = _rationalise(raw, constraints, sigma_value)
    if rational is not None:
        sigma = sum(rational, Fraction(0))
        return ExponentSolution(rational, sigma, is_exact=True)
    floats = [Fraction(float(v)).limit_denominator(10**6) for v in raw]
    return ExponentSolution(floats, sum(floats, Fraction(0)), is_exact=False)


def _rationalise(
    raw: np.ndarray,
    constraints: list[tuple[list[int], int]],
    sigma_value: float,
) -> list[Fraction] | None:
    """Round the float solution to small rationals if feasibility is preserved."""
    candidate = [
        Fraction(float(v)).limit_denominator(RATIONALISE_MAX_DENOMINATOR) for v in raw
    ]
    for value in candidate:
        if value < 0 or value > 1:
            return None
    sigma = sum(candidate, Fraction(0))
    if float(sigma) > sigma_value + 1e-6:
        return None
    for coeffs, rhs in constraints:
        total = sum(Fraction(c) * s for c, s in zip(coeffs, candidate))
        if total < rhs:
            return None
    return candidate
