"""Wavefront lower bound derivation (Sec. 6, Corollary 6.3, Algorithm 5).

The wavefront argument applies when two consecutive "slices" of a statement's
iteration space (two successive values of an outer loop index) are linked by

* ``m`` vertex-disjoint paths from slice ``Omega`` to slice ``Omega + 1``
  (typically the point-wise self-dependence ``S[Omega, x] -> S[Omega+1, x]``),
  and
* complete reachability: every vertex of slice ``Omega + 1`` is reachable from
  every vertex of slice ``Omega`` (typically through a reduction into a scalar
  that is then broadcast to the whole next slice).

Then any schedule has a wavefront of at least ``m`` live values, hence
``Q >= m - S`` for that slice pair; summing over the outer loop (Sec. 4.3)
gives bounds such as ``(M-1)(N-S)`` for Example 2 and the ``adi``/``durbin``
bounds of Table 2.

The paper's Algorithm 5 establishes the completeness hypothesis symbolically
with ISL relation algebra (including transitive closures).  This reproduction
does the same: the structural detector (a bottleneck statement whose value is
broadcast to the whole next slice) is combined with a *symbolic* validation of
the hypothesis on :mod:`repro.rel` affine relations built from the DFG —
every point of slice ``Omega + 1`` provably reachable from every point of
slice ``Omega``, for every ``Omega`` and every parameter value, via a
certified (under-approximated) transitive closure.  This symbolic check is
the only way a wavefront bound is admitted; the historical concrete-CDAG
validation (DESIGN.md, deviation 3 — retired) is kept as
:func:`_validate_reachability_concrete`, the reference the fuzz ``backends``
oracle checks symbolic certificates against.
"""

from __future__ import annotations

from typing import Mapping

import sympy

from ..ir import CDAG, DFG
from ..rel import (
    AffineRelation,
    ReachabilityResult,
    check_universal_reachability,
    in_name,
    out_name,
)
from ..sets import Constraint, CountingError, EQ, LinExpr, ParamSet, card, lin_to_sympy, sym
from .bounds import S_SYMBOL, SubBound, clamp_at_zero
from .paths import CHAIN, genpaths

OMEGA_PREFIX = "Omega"


def wavefront_depths(dims: tuple[str, ...], max_depth: int) -> list[int]:
    """Parametrisation depths at which a wavefront derivation can apply.

    A depth is admissible when the statement keeps at least one inner
    dimension after slicing (``len(dims) > depth``).  This is the plan-time
    applicability test of the task pipeline: each returned depth becomes one
    independent :class:`~repro.analysis.plan.DerivationTask`, and
    :func:`sub_param_q_by_wavefront` is the corresponding task body.
    """
    return [depth for depth in range(1, max_depth + 1) if len(dims) > depth]


def sub_param_q_by_wavefront(dfg: DFG, statement: str, depth: int = 1) -> SubBound | None:
    """Derive a wavefront bound for ``statement`` parametrised at loop ``depth``.

    The complete-reachability hypothesis of Cor. 6.3 is decided on affine
    relations built from the DFG (:func:`_validate_reachability_symbolic`),
    instance-independent and faithful to Algorithm 5.  Returns ``None`` when
    the structural pattern is absent or when the hypothesis is not certified.
    """
    # 1-2. The structural pattern: a unit chain and a broadcast bottleneck.
    chain = structural_chain(dfg, statement, depth)
    if chain is None:
        return None
    stmt = dfg.program.statement(statement)
    slice_dim = stmt.dims[depth - 1]

    # 3. Validate the complete-reachability hypothesis.
    certificate = _validate_reachability_symbolic(dfg, statement, depth)
    if not certificate.holds:
        return None

    # 4. Parametric bound: for each value Omega of the sliced dimension,
    #    Q(G|V_Omega) >= |slice(Omega)| - S ; sum over the admissible Omegas.
    omega = f"{OMEGA_PREFIX}{depth}"
    slice_domain = stmt.domain.fix_dim(slice_dim, LinExpr.var(omega))
    try:
        slice_card = card(slice_domain)
    except CountingError:
        return None

    bounds = _omega_range(stmt.domain, slice_dim)
    if bounds is None:
        return None
    low_expr, high_expr = bounds
    omega_symbol = sym(omega)
    per_slice = slice_card - S_SYMBOL
    # Slices are counted from the second iteration onwards (the first has no
    # predecessor slice), mirroring the (M-1)(N-S) shape of Example 2.
    total = sympy.summation(per_slice, (omega_symbol, lin_to_sympy(low_expr) + 1, lin_to_sympy(high_expr)))
    total = sympy.expand(total)

    may_spill = {statement: stmt.domain}
    closure_kind = "exact" if certificate.exact else "approximated"
    notes = (
        f"wavefront over {slice_dim}, chain {chain.describe()}, "
        f"symbolic validation ({closure_kind} closure)"
    )
    return SubBound(
        expression=clamp_at_zero(total),
        smooth=total,
        may_spill=may_spill,
        method="wavefront",
        statement=statement,
        depth=depth,
        notes=notes,
    )


def structural_chain(dfg: DFG, statement: str, depth: int):
    """The gate in front of the (expensive) reachability check.

    Returns the unit chain of ``statement`` at ``depth`` when the structural
    wavefront pattern is present, ``None`` otherwise.  The pattern is

    1. a point-wise chain circuit stepping +1 along the sliced dimension,
       which provides the vertex-disjoint paths L_j of Corollary 6.3; and
    2. a broadcast bottleneck: an edge into ``statement`` whose read function
       ignores every inner dimension (all instances of a slice read the same
       producer instance), coming from another statement.

    Only statements that pass are asked about reachability, by the
    derivation and by the fuzz ``backends`` oracle alike.
    """
    dims = dfg.program.statement(statement).dims
    if len(dims) <= depth or depth < 1:
        return None
    chain = _find_unit_chain(dfg, statement, dims, depth)
    if chain is None or not _has_broadcast_bottleneck(dfg, statement, dims[depth:]):
        return None
    return chain


def _find_unit_chain(dfg: DFG, statement: str, dims: tuple[str, ...], depth: int):
    """Find a chain circuit stepping +1 in the sliced dim and 0 elsewhere."""
    for path in genpaths(dfg, statement, max_length=1):
        if path.kind != CHAIN:
            continue
        delta = path.function.translation_vector()
        forward = [-d for d in delta]
        expected = [1 if i == depth - 1 else 0 for i in range(len(dims))]
        if forward == expected:
            return path
    return None


def _has_broadcast_bottleneck(dfg: DFG, statement: str, inner_dims: tuple[str, ...]) -> bool:
    """True when some dependence into ``statement`` ignores all inner dims."""
    for dep in dfg.edges_into(statement):
        if dep.source not in dfg.program.statements:
            continue
        if dep.source == statement:
            continue
        if all(not expr.depends_on(inner_dims) for expr in dep.function.exprs):
            return True
    return False


def _omega_range(domain: ParamSet, slice_dim: str) -> tuple[LinExpr, LinExpr] | None:
    """Lower/upper bounds of the sliced dimension over the whole domain.

    Within a piece the *tightest* bound wins (max of lower bounds, min of
    upper bounds) — but only when the candidates are comparable, i.e. their
    difference is a known constant; a symbolically incomparable pair gives
    up.  Distinct pieces of a union must agree exactly on the resulting
    bounds: a disagreement would make the summation range ill-defined, so it
    returns None rather than silently picking one piece's answer.
    """
    projected = domain.project_onto([slice_dim])
    lower: LinExpr | None = None
    upper: LinExpr | None = None
    for piece in projected.pieces:
        piece_lower: LinExpr | None = None
        piece_upper: LinExpr | None = None
        for constraint in piece.constraints:
            coeff = constraint.expr.coeff(slice_dim)
            if coeff == 0:
                continue
            rest = LinExpr(
                {n: c for n, c in constraint.expr.coeffs.items() if n != slice_dim},
                constraint.expr.const,
            )
            if abs(coeff) != 1:
                return None
            if coeff > 0:
                piece_lower = _tightest(piece_lower, -rest, keep_larger=True)
            else:
                piece_upper = _tightest(piece_upper, rest, keep_larger=False)
            if piece_lower is _INCOMPARABLE or piece_upper is _INCOMPARABLE:
                return None
        if piece_lower is None or piece_upper is None:
            return None
        if lower is None:
            lower, upper = piece_lower, piece_upper
        elif lower != piece_lower or upper != piece_upper:
            return None  # cross-piece disagreement: no single summation range
    if lower is None or upper is None:
        return None
    return lower, upper


#: Sentinel returned by :func:`_tightest` for symbolically incomparable bounds.
_INCOMPARABLE = LinExpr.constant(0)


def _tightest(current: LinExpr | None, candidate: LinExpr, keep_larger: bool):
    """The tighter of two affine bounds, or ``_INCOMPARABLE``.

    Two bounds are comparable only when their difference is a constant; the
    larger one is the tighter lower bound, the smaller the tighter upper.
    """
    if current is None:
        return candidate
    difference = candidate - current
    if not difference.is_constant():
        return _INCOMPARABLE
    if (difference.const > 0) == keep_larger and difference.const != 0:
        return candidate
    return current


# -- symbolic validation (Algorithm 5) ---------------------------------------


def dfg_forward_relations(dfg: DFG) -> list[AffineRelation]:
    """Forward flow relations between statement instances of the DFG.

    Each dependence is stored in inverse (read-function) form ``sink ->
    source``; the CDAG edge relation is its inverse, restricted so that both
    endpoints lie in their statements' iteration domains (mirroring
    ``CDAG.expand``).  Array sources carry no incoming edges and therefore
    never appear on a statement-to-statement path, so they are skipped.
    """
    program = dfg.program
    relations = []
    for dep in program.dependences:
        if dep.source not in program.statements:
            continue
        sink = program.statement(dep.sink)
        source = program.statement(dep.source)
        domain = dep.domain.intersect(sink.domain)
        backward = AffineRelation.from_function(domain, dep.function, source.space)
        relations.append(backward.restrict_range(source.domain).inverse())
    return relations


def slice_step_relation(stmt_domain: ParamSet, depth: int) -> AffineRelation:
    """The universal slice-step relation of Cor. 6.3's hypothesis.

    Relates *every* point of slice ``Omega`` to *every* point of slice
    ``Omega + 1`` of the statement domain, for every ``Omega`` — exactly the
    set of pairs that must be reachable for the wavefront bound to hold.
    """
    index = depth - 1
    step = Constraint(LinExpr({out_name(index): 1, in_name(index): -1}, -1), EQ)
    return AffineRelation.universal(stmt_domain, stmt_domain).restrict([step])


def _cached_forward_relations(dfg: DFG) -> list[AffineRelation]:
    """Per-DFG memo of :func:`dfg_forward_relations`.

    The forward relations are statement- and depth-independent, but the
    wavefront strategy probes one (statement, depth) pair at a time; caching
    on the DFG instance avoids rebuilding them for every probe of the same
    derivation.
    """
    cache = getattr(dfg, "_forward_relation_cache", None)
    if cache is None:
        cache = dfg_forward_relations(dfg)
        dfg._forward_relation_cache = cache
    return cache


def _validate_reachability_symbolic(dfg: DFG, statement: str, depth: int) -> ReachabilityResult:
    """Check Cor. 6.3's hypothesis symbolically (Algorithm 5).

    Builds the forward dependence relations of the DFG, the universal
    slice-step relation of the statement, and asks
    :func:`~repro.rel.check_universal_reachability` to certify the
    containment in the transitive closure.  The answer is
    instance-independent: it quantifies over all slices and all parameter
    values in the non-degenerate regime (every parameter >= 1).

    The verdict is memoised on the DFG instance, keyed by (statement,
    depth): the transitive-closure check is by far the most expensive step
    of a derivation, it is deterministic, and the per-process DFG cache
    (:func:`repro.analysis.plan.dfg_for`) hands the same DFG to every
    derivation of the same program — so re-deriving under
    a different executor, strategy subset or store state (exactly what the
    differential fuzzer does all day) pays for the closure once.
    """
    cache = getattr(dfg, "_reachability_cache", None)
    if cache is None:
        cache = {}
        dfg._reachability_cache = cache
    key = (statement, depth)
    cached = cache.get(key)
    if cached is not None:
        return cached
    stmt = dfg.program.statement(statement)
    edges = _cached_forward_relations(dfg)
    target = slice_step_relation(stmt.domain, depth)
    context = [Constraint(LinExpr({p: 1}, -1)) for p in dfg.program.params]
    result = check_universal_reachability(edges, target, statement, context)
    cache[key] = result
    return result


# -- concrete validation (reference for the fuzz oracle; DESIGN.md deviation 3)


def _validate_reachability_concrete(
    dfg: DFG, statement: str, depth: int, instance: Mapping[str, int]
) -> bool:
    """Check Cor. 6.3's hypothesis on a concretely expanded CDAG.

    For two consecutive slices of the statement, every vertex of the later
    slice must be reachable from every vertex of the earlier one.  Never
    used to admit a bound: it is the reference the fuzz ``backends`` oracle
    and the tests check symbolic certificates against.  It checks one small
    instance only and scales as O(N^d) with it.
    """
    try:
        cdag = CDAG.expand(dfg.program, instance)
    except Exception:
        return False
    slice_index = depth - 1
    vertices = cdag.statement_vertices(statement)
    if not vertices:
        return False
    slice_values = sorted({point[slice_index] for _, point in vertices})
    if len(slice_values) < 2:
        return False
    checked_pairs = 0
    for earlier, later in zip(slice_values, slice_values[1:]):
        v1 = [v for v in vertices if v[1][slice_index] == earlier]
        v2 = [v for v in vertices if v[1][slice_index] == later]
        if not v1 or not v2:
            continue
        for source in v1:
            reached, frontier = set(), [cdag.ids[source]]
            while frontier:  # search over successor ids
                for child in cdag.succ[frontier.pop()]:
                    if child not in reached:
                        reached.add(child)
                        frontier.append(child)
            if not all(cdag.ids[target] in reached for target in v2):
                return False
        checked_pairs += 1
        if checked_pairs >= 2:
            break
    return checked_pairs > 0
