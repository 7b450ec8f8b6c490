"""ISL as a test-time oracle for the symbolic wavefront validator.

The paper's Algorithm 5 decides Cor. 6.3's complete-reachability hypothesis
with ISL's transitive closure.  This reproduction decides it with
:mod:`repro.rel` alone, so a derived bound never depends on whether
``islpy`` is installed.  Here ISL is an independent second opinion: the DFG's
forward relations and the universal slice-step relation are serialised as
ISL maps, and whenever ISL reports its closure *exact*, its containment
answer must equal the pure engine's.  An inexact ISL closure gives no
answer.  The module is skipped without ``islpy``.
"""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.core.wavefront import (
    _validate_reachability_symbolic,
    dfg_forward_relations,
    slice_step_relation,
)
from repro.fuzz.generator import random_program
from repro.ir import DFG
from repro.polybench import get_kernel
from repro.rel import AffineRelation, in_name, out_name
from repro.sets import EQ, Constraint, LinExpr

from .test_reachability import example2_program

islpy = pytest.importorskip("islpy")


# -- serialisation to ISL ------------------------------------------------------


def _isl_term(coeff, name: str) -> str:
    if coeff == 1:
        return name
    if coeff == -1:
        return f"-{name}"
    return f"{int(coeff)}{name}"


def _isl_constraint(constraint: Constraint, rename: dict[str, str]) -> str:
    expr = constraint.expr.scaled_to_integers()
    terms = [
        _isl_term(coeff, rename.get(name, name))
        for name, coeff in sorted(expr.coeffs.items())
    ]
    if expr.const != 0 or not terms:
        terms.append(str(int(expr.const)))
    body = " + ".join(terms).replace("+ -", "- ")
    op = "=" if constraint.kind == EQ else ">="
    return f"{body} {op} 0"


def _fresh_out_names(relation: AffineRelation, taken: set[str]) -> list[str]:
    names = []
    for index, dim in enumerate(relation.out_space.dims):
        candidate = dim if dim not in taken else f"{dim}_o{index}"
        while candidate in taken:
            candidate = candidate + "_"
        taken.add(candidate)
        names.append(candidate)
    return names


def relation_to_isl_str(relation: AffineRelation, params: Sequence[str]) -> str:
    """Serialise a relation as an ISL (union) map string."""
    in_dims = list(relation.in_space.dims)
    out_dims = _fresh_out_names(relation, set(in_dims) | set(params))
    rename = {in_name(k): d for k, d in enumerate(in_dims)}
    rename.update({out_name(k): d for k, d in enumerate(out_dims)})
    header = f"[{', '.join(params)}] -> " if params else ""
    head = (
        f"{relation.in_space.tuple_name}[{', '.join(in_dims)}] -> "
        f"{relation.out_space.tuple_name}[{', '.join(out_dims)}]"
    )
    pieces = []
    for piece in relation.pieces:
        conjuncts = [_isl_constraint(c, rename) for c in piece.constraints]
        condition = f" : {' and '.join(conjuncts)}" if conjuncts else ""
        pieces.append(head + condition)
    if not pieces:
        pieces = [head + " : 1 = 0"]  # an empty map over the right tuples
    return header + "{ " + "; ".join(pieces) + " }"


def _context_params(
    edges: Sequence[AffineRelation], context: Sequence[Constraint]
) -> list[str]:
    params: list[str] = []
    for edge in edges:
        for piece in edge.pieces:
            for p in piece.space.params:
                if p not in params:
                    params.append(p)
    for constraint in context:
        for name in constraint.expr.names():
            if name not in params:
                params.append(name)
    return params


# -- the ISL decision ------------------------------------------------------------


def isl_reachability(
    edges: Sequence[AffineRelation],
    target: AffineRelation,
    context: Sequence[Constraint],
) -> bool | None:
    """ISL's answer to ``target ⊆ closure(edges)``, or None when inexact."""
    params = _context_params(edges, context)
    union = None
    for edge in edges:
        umap = islpy.UnionMap(relation_to_isl_str(edge, params))
        union = umap if union is None else union.union(umap)
    if union is None:
        return False
    result = union.transitive_closure()
    closure, exact = result if isinstance(result, tuple) else (result, False)
    if not exact:
        return None
    target_map = islpy.UnionMap(relation_to_isl_str(target, params))
    if params:
        conjuncts = [_isl_constraint(c, {}) for c in context] or ["0 = 0"]
        assumptions = islpy.Set(f"[{', '.join(params)}] -> {{ : {' and '.join(conjuncts)} }}")
        closure = closure.intersect_params(assumptions)
        target_map = target_map.intersect_params(assumptions)
    return bool(target_map.is_subset(closure))


def assert_isl_agrees(dfg: DFG, statement: str, depth: int = 1) -> None:
    """Any exact ISL answer equals the pure engine's verdict."""
    edges = dfg_forward_relations(dfg)
    target = slice_step_relation(dfg.program.statement(statement).domain, depth)
    context = [Constraint(LinExpr({p: 1}, -1)) for p in dfg.program.params]
    isl_answer = isl_reachability(edges, target, context)
    pure = _validate_reachability_symbolic(dfg, statement, depth)
    if isl_answer is not None:
        assert isl_answer == pure.holds, (
            f"{dfg.program.name}:{statement}: exact ISL closure says "
            f"{isl_answer}, the pure engine says {pure.holds}"
        )


# -- the oracle ------------------------------------------------------------------


def test_isl_serialization_parses():
    dfg = DFG.from_program(get_kernel("durbin").program)
    for edge in dfg_forward_relations(dfg):
        parsed = islpy.UnionMap(relation_to_isl_str(edge, list(dfg.program.params)))
        assert not parsed.is_empty()


@pytest.mark.parametrize("statement", ["S1", "S2"])
def test_example2(statement):
    assert_isl_agrees(DFG.from_program(example2_program()), statement)


def test_durbin():
    assert_isl_agrees(DFG.from_program(get_kernel("durbin").program), "Y")


@pytest.mark.slow
def test_durbin_sum_statement():
    assert_isl_agrees(DFG.from_program(get_kernel("durbin").program), "SUM")


@pytest.mark.parametrize("seed", [2, 3])
def test_random_dfg_fast(seed):
    dfg = DFG.from_program(random_program(seed))
    for statement in ("P", "Q"):
        assert_isl_agrees(dfg, statement)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, *range(4, 40)])
def test_random_dfg_sweep(seed):
    dfg = DFG.from_program(random_program(seed))
    for statement in ("P", "Q"):
        assert_isl_agrees(dfg, statement)
