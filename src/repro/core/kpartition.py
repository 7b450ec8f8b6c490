"""K-partition lower bound derivation (Sec. 5, Algorithm 4).

Given a statement-centric sub-CDAG described by a set of DFG-paths all ending
at a statement ``S`` (with a common applicability domain ``D``), this module
derives the (S+T)-partitioning lower bound

    Q  >=  floor(|D| / U) * T  -  |I|

where ``U`` bounds the size of any (S+T)-bounded vertex set via the discrete
Brascamp-Lieb inequality with the summed-projection refinement of Lemma 5.2,
``T = S / (sigma - 1)`` maximises the leading term, and ``I`` is the union of
the path source sets (an over-approximation of the sub-CDAG sources, which is
the safe direction).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import sympy

from ..ir import DFG
from ..linalg import SubspaceLattice, subspace_closure
from ..sets import Constraint, CountingError, LinExpr, ParamSet, card, card_upper
from .bounds import S_SYMBOL, SubBound, clamp_at_zero, evaluate
from .brascamp_lieb import solve_exponents
from .interference import coeff_interf, path_source_set
from .paths import DFGPath, genpaths

#: Cap on the number of pieces a shattered working domain may have before the
#: same-statement decomposition gives up on further rounds.
MAX_WORKING_PIECES = 16


def sub_param_q_by_partition(
    dfg: DFG,
    statement: str,
    paths: list[DFGPath],
    domain: ParamSet,
    lattice: SubspaceLattice,
    depth: int = 0,
) -> SubBound | None:
    """Algorithm 4: derive a lower bound from a path combination.

    Returns ``None`` when the combination cannot produce a non-trivial bound
    (infeasible exponents, sigma <= 1, or a domain we cannot count exactly).
    """
    if not paths:
        return None

    kernels = [path.kernel() for path in paths]
    betas = coeff_interf(dfg, paths, domain)
    solution = solve_exponents(kernels, lattice, betas)
    if solution is None:
        return None
    sigma = solution.sigma
    if sigma <= 1:
        return None

    # T = S / (sigma - 1);  K = S + T = S * sigma / (sigma - 1).
    sigma_expr = sympy.Rational(sigma.numerator, sigma.denominator)
    t_expr = S_SYMBOL / (sigma_expr - 1)
    k_expr = S_SYMBOL + t_expr

    # U = prod_j ( K * s_j / (beta_j * sigma) )^{s_j}   (Lemma 5.2)
    u_expr = sympy.Integer(1)
    for s_j, beta_j in zip(solution.exponents, betas):
        if s_j == 0:
            continue
        s_rat = sympy.Rational(s_j.numerator, s_j.denominator)
        beta_rat = sympy.Rational(beta_j.numerator, beta_j.denominator)
        u_expr *= (k_expr * s_rat / (beta_rat * sigma_expr)) ** s_rat
    u_expr = sympy.powsimp(u_expr, force=True)

    try:
        domain_card = card(domain)
    except CountingError:
        return None
    source_cards = sympy.Integer(0)
    may_spill: dict[str, ParamSet] = {}
    _accumulate_may_spill(may_spill, statement, domain)
    for path in paths:
        source_set = path_source_set(dfg, path, domain)
        if path.source == statement:
            # Vertices of D itself are never sources of the sub-CDAG (each has
            # a predecessor along every selected path), so only the part of
            # the preimage outside D counts towards |Sources(V)|.
            source_set = source_set.subtract(domain).coalesce()
        try:
            source_cards += card_upper(source_set)
        except CountingError:
            try:
                # Fall back to the size of the whole source-node domain: a
                # larger subtraction keeps the bound valid.
                source_cards += _node_domain_card(dfg, path.source)
            except CountingError:
                return None
        for node, function in path.intermediate_functions:
            if node not in dfg.program.statements:
                continue
            space = dfg.program.statement(node).space
            _accumulate_may_spill(may_spill, node, function.image_of(domain, space))

    q_full = clamp_at_zero(sympy.floor(domain_card / u_expr) * t_expr - source_cards)
    q_smooth = sympy.expand((domain_card / u_expr - 1) * t_expr - source_cards)

    notes = (
        f"paths={[p.describe() for p in paths]}, "
        f"s={[str(s) for s in solution.exponents]}, beta={[str(b) for b in betas]}, "
        f"sigma={sigma}, T={t_expr}, U={u_expr}"
    )
    return SubBound(
        expression=q_full,
        smooth=q_smooth,
        may_spill=may_spill,
        method="kpartition",
        statement=statement,
        depth=depth,
        notes=notes,
    )


def statement_partition_bounds(
    dfg: DFG,
    statement: str,
    instance: Mapping[str, int],
    gamma: float,
    max_rounds: int = 1,
    log: list[str] | None = None,
) -> list[SubBound]:
    """All K-partition sub-bounds of one statement — one pipeline task.

    This is the per-statement body of Algorithm 6 (lines 9-18) plus the
    Sec. 4.2 same-statement decomposition: derive a bound, remove its
    may-spill region from the working domain, and look for another sub-CDAG,
    up to ``max_rounds`` times.  Rounds are inherently sequential (each
    works on what the previous one left uncovered), so they stay inside one
    task; different *statements* are independent and are scheduled as
    separate tasks by the planner.
    """
    program = dfg.program
    sub_bounds: list[SubBound] = []
    working = program.statement(statement).domain
    for round_index in range(max_rounds):
        bound = derive_partition_bound(dfg, statement, working, instance, gamma)
        if bound is None:
            break
        sub_bounds.append(bound)
        if log is not None:
            log.append(
                f"kpartition[{statement} round {round_index}]: "
                f"{bound.smooth} ({bound.notes})"
            )
        if round_index + 1 >= max_rounds:
            break
        spill = bound.may_spill.get(statement)
        if spill is None:
            break
        # Pieces that are only non-empty for degenerate (tiny) parameter
        # values are dropped: this is pure search-space pruning and keeps
        # the later rounds focused on genuinely uncovered regions.
        context = large_parameter_context(program.params)
        working = working.subtract(spill).coalesce(context)
        if (
            working.is_obviously_empty()
            or len(working.pieces) > MAX_WORKING_PIECES
            or working.is_empty(context)
        ):
            break
    return sub_bounds


def derive_partition_bound(
    dfg: DFG,
    statement: str,
    working_domain: ParamSet,
    instance: Mapping[str, int],
    gamma: float,
) -> SubBound | None:
    """One round of the per-statement search: paths -> lattice -> Alg. 4."""
    domain_size = instance_card(working_domain, instance)
    if domain_size is not None and domain_size < 1:
        return None

    paths = genpaths(dfg, statement, restrict_domain=working_domain)
    if not paths:
        return None

    ambient = dfg.program.statement(statement).space.dim
    lattice = SubspaceLattice(ambient)
    accepted = []
    current_domain = working_domain.intersect(dfg.program.statement(statement).domain)
    for path in paths:
        restricted = current_domain.intersect(path.domain)
        if domain_size is not None:
            restricted_size = instance_card(restricted, instance)
            if restricted_size is not None and restricted_size < gamma * domain_size:
                continue
        kernel = path.kernel()
        if kernel.is_zero():
            continue
        lattice, changed = subspace_closure(lattice, kernel)
        if not changed:
            continue
        accepted.append(path)
        current_domain = restricted

    if not accepted:
        return None
    return sub_param_q_by_partition(
        dfg, statement, accepted, current_domain, lattice, depth=0
    )


def large_parameter_context(params: Iterable[str], minimum: int = 4) -> list[Constraint]:
    """Context constraints ``param >= minimum`` encoding the large-parameter regime."""
    return [Constraint(LinExpr({p: 1}, -minimum)) for p in params]


def instance_card(domain: ParamSet, instance: Mapping[str, int]) -> float | None:
    """Cardinality of a domain at the heuristic instance (None when unknown)."""
    try:
        expr = card(domain)
    except CountingError:
        return None
    try:
        return evaluate(expr, instance)
    except (TypeError, ValueError):
        return None


def _accumulate_may_spill(
    may_spill: dict[str, ParamSet], node: str, addition: ParamSet
) -> None:
    if node in may_spill:
        may_spill[node] = may_spill[node].union(addition)
    else:
        may_spill[node] = addition


def _node_domain_card(dfg: DFG, node: str) -> sympy.Expr:
    """Cardinality of a DFG node's full domain (raises CountingError on failure)."""
    if node in dfg.program.statements:
        domain = dfg.program.statement(node).domain
    else:
        domain = dfg.program.array(node).domain
    return card(domain)
