"""Transitive closure of affine relations, with an exactness certificate.

This is the engine behind the Algorithm-5-faithful wavefront validation: the
paper establishes the completeness hypothesis of Corollary 6.3 with ISL
relation algebra including transitive closures; here the same queries are
answered on :class:`~repro.rel.relation.AffineRelation` unions.

Closure semantics
-----------------

``transitive_closure(R)`` returns a :class:`ClosureResult` whose relation is

* **exact** (``exact=True``): equal to ``R+``, guaranteed for
  *translation-family* relations — unions of pieces ``x -> x + b`` with at
  least one unit offset coordinate over convex domains, which covers every
  PolyBench chain dependence — and for relations whose path lengths are
  provably bounded (the saturation loop reaches a certified fixpoint);
* otherwise an **approximation** (``exact=False``): a superset of ``R+`` in
  the default ``direction="over"`` mode, or a subset in ``direction="under"``
  mode (truncated path saturation).

The under-approximating mode is what makes the reachability *certificate*
sound: any pair contained in an under-approximation of ``R+`` is certainly
reachable, so a positive wavefront validation never relies on an
over-approximation.

Reachability on a graph of relations
------------------------------------

``check_universal_reachability`` runs a Kleene/Floyd-Warshall sweep over the
DFG's statement nodes, starring each pivot's self-relation with the closure
engine, and tests the universal slice-step relation for inclusion after
every pivot.  The early exit matters for the exactness report: the
certificate for the wavefront examples (Example 2, durbin) is established
from exactly-closed chain relations before any harder self-relation (e.g. a
reflection dependence) would force an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..sets import EQ, GE, BasicSet, Constraint, EliminationError, LinExpr, Space
from .. import perf
from .relation import (
    MAX_PIECE_CONSTRAINTS,
    AffineRelation,
    _eliminate_tracked,
    in_name,
    out_name,
    translation_of_piece,
)

#: Saturation rounds before the closure gives up on reaching a fixpoint.
MAX_SATURATION_ROUNDS = 5

#: Piece budget of a closure / reachability relation; beyond it the engine
#: truncates (under mode) or widens to the universal relation (over mode).
MAX_CLOSURE_PIECES = 48

_STEP_NAME = "__k"


@dataclass(frozen=True)
class ClosureResult:
    """A transitive closure plus its exactness certificate.

    ``exact`` means ``relation`` equals the true transitive closure; when
    False, ``relation`` over-approximates (``direction="over"``) or
    under-approximates (``direction="under"``) it.
    """

    relation: AffineRelation
    exact: bool
    rounds: int = 0


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of a universal-reachability (wavefront hypothesis) query.

    ``holds`` is a *certificate*: True only when the target relation was
    proven to be contained in an (under-approximated, hence sound) closure
    of the dependence relations.  ``exact`` reports whether every closure
    used to establish — or, for a negative answer, to refute — the
    containment was exact.
    """

    holds: bool
    exact: bool
    pivots: int = 0


def _self_check(relation: AffineRelation) -> None:
    if relation.n_in != relation.n_out:
        raise ValueError("transitive closure requires equal input/output arity")
    if relation.in_space.tuple_name != relation.out_space.tuple_name:
        raise ValueError("transitive closure requires a self-relation")


def _translation_piece_closure(
    relation: AffineRelation, piece: BasicSet, delta: tuple[int, ...]
) -> tuple[BasicSet, bool]:
    """Parametric closure of one translation piece ``{x -> x + b : x in D}``.

    The closure is ``{x -> x + k b : k >= 1, x in D, x + (k-1) b in D}``;
    since ``D`` is a single (convex) basic set, every intermediate source
    point lies in ``D`` as well, so this is the exact ``piece+`` whenever
    the step counter ``k`` can be eliminated through a unit-coefficient
    equality — i.e. whenever some ``|b_j| = 1``.
    """
    if all(d == 0 for d in delta):
        return piece, True
    n = relation.n_in
    identify = {out_name(j): LinExpr({in_name(j): 1}, delta[j]) for j in range(n)}
    domain_constraints = [c.substitute(identify) for c in piece.constraints]
    shift = {
        in_name(j): LinExpr({in_name(j): 1, _STEP_NAME: delta[j]}, -delta[j])
        for j in range(n)
        if delta[j] != 0
    }
    last_source_constraints = [c.substitute(shift) for c in domain_constraints]
    constraints = list(domain_constraints) + last_source_constraints
    for j in range(n):
        constraints.append(
            Constraint(
                LinExpr({out_name(j): 1, in_name(j): -1, _STEP_NAME: -delta[j]}), EQ
            )
        )
    constraints.append(Constraint(LinExpr({_STEP_NAME: 1}, -1), GE))
    eliminated, exact = _eliminate_tracked(constraints, [_STEP_NAME])
    if len(eliminated) > MAX_PIECE_CONSTRAINTS:
        raise EliminationError("translation closure piece too large")
    return BasicSet(piece.space, eliminated), exact


def _truncated_powers(
    relation: AffineRelation,
    context: Sequence[Constraint],
    rounds: int = MAX_SATURATION_ROUNDS,
) -> AffineRelation:
    """``R u R^2 u ... u R^rounds`` — always a sound under-approximation of R+."""
    total = relation
    power = relation
    for _ in range(rounds - 1):
        power = power.compose(relation).coalesce(context)
        if power.is_obviously_empty():
            break
        total = total.union(power)
        if len(total.pieces) > MAX_CLOSURE_PIECES:
            total = AffineRelation(
                total.in_space,
                total.out_space,
                total.pieces[:MAX_CLOSURE_PIECES],
                exact=False,
            )
            break
    return total


def _universal_over(relation: AffineRelation) -> AffineRelation:
    """``domain(R) x range(R)`` — always a superset of ``R+``."""
    widened = AffineRelation.universal(relation.domain(), relation.range())
    return AffineRelation(
        widened.in_space, widened.out_space, widened.pieces, exact=False
    )


#: Fixpoint certification is only attempted on relations this small: subset
#: tests on bloated unions are quadratic in pieces x constraints, and real
#: fixpoints (the only ones worth certifying) show up early and small.
MAX_FIXPOINT_PIECES = 16


def _fixpoint_checkable(step: AffineRelation, total: AffineRelation) -> bool:
    return (
        len(step.pieces) <= MAX_FIXPOINT_PIECES
        and len(total.pieces) <= MAX_FIXPOINT_PIECES
        and all(
            len(piece.constraints) <= MAX_PIECE_CONSTRAINTS // 2
            for relation in (step, total)
            for piece in relation.pieces
        )
    )


def _saturate(
    seed: AffineRelation,
    generator: AffineRelation,
    context: Sequence[Constraint],
    direction: str,
    exact_if_fixpoint: bool,
    fallback_base: AffineRelation,
) -> ClosureResult:
    """Union compositions of ``seed`` with ``generator`` until a certified
    fixpoint, a piece budget overrun, or the round limit."""
    total = seed
    for rounds in range(1, MAX_SATURATION_ROUNDS + 1):
        if not (exact_if_fixpoint and total.exact):
            # Exactness is already lost, so no fixpoint can certify: the
            # over-mode answer is the universal superset either way, and in
            # under mode the accumulated (sound) subset is as good as any
            # further rounds would make it.  Stop paying for saturation.
            if direction == "over":
                return ClosureResult(_universal_over(fallback_base), False, rounds)
            return ClosureResult(_cap_pieces(total), False, rounds)
        step = total.compose(generator).coalesce(context)
        may_certify = exact_if_fixpoint and total.exact and step.exact
        # An empty step certifies the fixpoint only when it is exact: an
        # inexact empty step just means every composed piece was dropped.
        if (step.is_obviously_empty() and step.exact) or (
            may_certify
            and _fixpoint_checkable(step, total)
            and step.is_subset(total, context)
        ):
            exact = exact_if_fixpoint and total.exact
            if direction == "over" and not exact:
                # Compositions may have dropped pieces, so `total` is no
                # longer guaranteed to be a superset of R+; the over-mode
                # contract requires one.
                return ClosureResult(_universal_over(fallback_base), False, rounds)
            return ClosureResult(total, exact, rounds)
        total = total.union(step).coalesce(context)
        if len(total.pieces) > MAX_CLOSURE_PIECES:
            break
    if direction == "over":
        return ClosureResult(_universal_over(fallback_base), False, MAX_SATURATION_ROUNDS)
    truncated = AffineRelation(
        total.in_space,
        total.out_space,
        total.pieces[:MAX_CLOSURE_PIECES],
        exact=False,
    )
    return ClosureResult(truncated, False, MAX_SATURATION_ROUNDS)


@perf.timed("rel-closure")
def transitive_closure(
    relation: AffineRelation,
    context: Sequence[Constraint] = (),
    direction: str = "over",
) -> ClosureResult:
    """Transitive closure ``R+`` with an exactness certificate.

    ``direction`` selects what an inexact result means: ``"over"`` (the
    default, matching ISL's contract) returns a superset of ``R+``;
    ``"under"`` returns a subset (truncated saturation), the sound direction
    for positive reachability certificates.
    """
    if direction not in ("over", "under"):
        raise ValueError(f"unknown closure direction {direction!r}")
    _self_check(relation)
    base = relation.coalesce(context)
    if not base.pieces:
        return ClosureResult(base, True)

    deltas = [translation_of_piece(base, piece) for piece in base.pieces]
    if all(delta is not None for delta in deltas):
        closed_pieces: list[BasicSet] = []
        exact = base.exact
        for piece, delta in zip(base.pieces, deltas):
            try:
                closed, piece_exact = _translation_piece_closure(base, piece, delta)
            except EliminationError:
                closed, piece_exact = None, False
            if not piece_exact and direction == "under":
                # The k-eliminated piece may over-approximate: fall back to
                # finitely many powers of this piece, which cannot.
                single = AffineRelation(base.in_space, base.out_space, [piece])
                closed_pieces.extend(
                    _truncated_powers(single, context).pieces
                )
                exact = False
                continue
            if closed is None:
                return ClosureResult(_universal_over(base), False, 0)
            closed_pieces.append(closed)
            exact = exact and piece_exact
        # The relation's own flag must agree with the closure certificate:
        # an inexact piece closure makes the union approximate (in the
        # direction of the requested mode), never silently "exact".
        candidate = AffineRelation(
            base.in_space, base.out_space, closed_pieces, exact=exact
        )
        if len(base.pieces) == 1:
            # A single translation family is already transitively closed.
            return ClosureResult(candidate, exact, 0)
        return _saturate(candidate, candidate, context, direction, exact, base)

    return _saturate(base, base, context, direction, base.exact, base)


def reflexive_closure(relation: AffineRelation) -> AffineRelation:
    """``R u Id`` (identity over the whole space)."""
    _self_check(relation)
    return relation.union(AffineRelation.identity(relation.in_space))


# -- reachability over a graph of relations ---------------------------------

#: Rounds of the path-saturation sweep: each round extends every known path
#: by one (closed) edge, so rounds bound the number of *inter-statement*
#: hops a certificate may use — chain runs inside a statement cost nothing,
#: they are pre-closed into the self-edges.
MAX_PATH_ROUNDS = 8


def _group_edges(
    edges: Iterable[AffineRelation],
) -> tuple[dict[tuple[str, str], AffineRelation], dict[str, Space], list[str]]:
    grouped: dict[tuple[str, str], AffineRelation] = {}
    spaces: dict[str, Space] = {}
    for edge in edges:
        key = (edge.in_space.tuple_name, edge.out_space.tuple_name)
        spaces.setdefault(key[0], edge.in_space)
        spaces.setdefault(key[1], edge.out_space)
        grouped[key] = grouped[key].union(edge) if key in grouped else edge
    nodes = sorted(spaces)
    return grouped, spaces, nodes


def _cap_pieces(relation: AffineRelation) -> AffineRelation:
    if len(relation.pieces) <= MAX_CLOSURE_PIECES:
        return relation
    return AffineRelation(
        relation.in_space,
        relation.out_space,
        relation.pieces[:MAX_CLOSURE_PIECES],
        exact=False,
    )


#: Self-relations are pre-closed only when they are small translation
#: families — the case the closure engine handles exactly and cheaply.
MAX_SELF_CLOSURE_PIECES = 8


def _closed_edge_graph(
    edges: Iterable[AffineRelation], context: Sequence[Constraint]
) -> tuple[dict[tuple[str, str], AffineRelation], dict[str, Space], list[str]]:
    """Group edges by (source, sink) tuple, closing translation self-edges.

    A node's self-relation made of translation pieces (the chain
    dependences) is replaced by its exact transitive closure, so one "hop"
    of the saturation sweep walks an arbitrarily long chain run.  Harder
    self-relations (e.g. durbin's reflection dependence) are kept as raw
    edges: the sweep still under-approximates their repetition through its
    rounds, and certificates that do not walk through them stay exact —
    the closure's exactness is folded into the edge relation's ``exact``
    flag, which propagates through compositions per path.
    """
    grouped, spaces, nodes = _group_edges(edges)
    closed: dict[tuple[str, str], AffineRelation] = {}
    for key, relation in grouped.items():
        relation = relation.coalesce(context)
        if key[0] == key[1] and len(relation.pieces) <= MAX_SELF_CLOSURE_PIECES and all(
            translation_of_piece(relation, piece) is not None
            for piece in relation.pieces
        ):
            result = transitive_closure(relation, context, direction="under")
            relation = result.relation
            if not result.exact and relation.exact:
                relation = AffineRelation(
                    relation.in_space, relation.out_space, relation.pieces, exact=False
                )
        if not relation.is_obviously_empty():
            closed[key] = relation
    return closed, spaces, nodes


def _saturate_paths(
    closed: dict[tuple[str, str], AffineRelation],
    source: str,
    context: Sequence[Constraint],
    on_round=None,
) -> tuple[dict[str, AffineRelation], bool]:
    """Accumulate relations ``source -> node`` for paths of length >= 1.

    Bounded breadth-first saturation over the closed edge graph; always a
    sound under-approximation of true reachability.  Returns the relation
    map and whether a certified fixpoint was reached (then the map *is*
    complete reachability, up to the exactness of the edge closures).
    ``on_round(paths)`` may return True to stop early.
    """
    paths: dict[str, AffineRelation] = {}
    lossy = False
    for (a, b), relation in closed.items():
        if a != source:
            continue
        paths[b] = paths[b].union(relation).coalesce(context) if b in paths else relation
        paths[b] = _cap_pieces(paths[b])
    if on_round is not None and on_round(paths):
        return paths, False
    for _ in range(MAX_PATH_ROUNDS):
        changed: set[str] = set()
        for (a, b), relation in closed.items():
            if a not in paths:
                continue
            if b in paths and len(paths[b].pieces) >= MAX_CLOSURE_PIECES:
                lossy = True  # piece budget for this node is exhausted
                continue
            extended = paths[a].compose(relation).coalesce(context)
            if not extended.exact:
                lossy = True  # the composition dropped pieces
            if extended.is_obviously_empty():
                continue
            if b in paths:
                # Union + signature dedup: a round that adds no
                # syntactically new piece anywhere is a genuine fixpoint
                # (every extension collapsed into an existing piece).
                combined = paths[b].union(extended).coalesce(context)
                if len(combined.pieces) == len(paths[b].pieces):
                    continue
            else:
                combined = extended
            paths[b] = _cap_pieces(combined)
            changed.add(b)
        if not changed:
            return paths, not lossy
        if on_round is not None and source in changed and on_round(paths):
            return paths, False
    return paths, False


@perf.timed("rel-closure")
def graph_reachability(
    edges: Iterable[AffineRelation],
    source: str,
    target: str,
    context: Sequence[Constraint] = (),
) -> ClosureResult:
    """All paths of length >= 1 from tuple ``source`` to tuple ``target``.

    The result is always a sound *under*-approximation of the true
    reachability relation; ``exact`` is True only when the saturation
    reached a certified fixpoint and every edge closure and composition
    stayed exact — then the relation is complete reachability.
    """
    closed, spaces, _nodes = _closed_edge_graph(edges, context)
    if source not in spaces or target not in spaces:
        raise KeyError(f"unknown tuple in reachability query: {source!r}/{target!r}")
    paths, fixpoint = _saturate_paths(closed, source, context)
    result = paths.get(target)
    if result is None:
        result = AffineRelation.empty(spaces[source], spaces[target])
    edge_exact = all(relation.exact for relation in closed.values())
    return ClosureResult(result, fixpoint and edge_exact and result.exact)


@perf.timed("rel-closure")
def check_universal_reachability(
    edges: Iterable[AffineRelation],
    target_relation: AffineRelation,
    statement: str,
    context: Sequence[Constraint] = (),
) -> ReachabilityResult:
    """Certify ``target_relation`` subset-of reachability(statement -> statement).

    The containment is tested against a sound under-approximation after
    every saturation round, so ``holds=True`` is a genuine certificate (the
    pairs are reachable) and never relies on an over-approximation.  On a
    positive answer ``exact`` reports whether every closure and composition
    the certifying relation was built from stayed exact; on a negative
    answer it is True only when the sweep reached a certified fixpoint with
    exact closures — i.e. the refutation is exact too.
    """
    closed, spaces, _nodes = _closed_edge_graph(edges, context)
    if statement not in spaces:
        return ReachabilityResult(False, True, 0)
    rounds = 0
    outcome: dict[str, bool] = {}

    def certified(paths: dict[str, AffineRelation]) -> bool:
        nonlocal rounds
        rounds += 1
        current = paths.get(statement)
        if current is not None and target_relation.is_subset(current, context):
            outcome["exact"] = current.exact
            return True
        return False

    paths, fixpoint = _saturate_paths(closed, statement, context, on_round=certified)
    if "exact" in outcome:
        return ReachabilityResult(True, outcome["exact"], rounds)
    edge_exact = all(relation.exact for relation in closed.values())
    exact_refutation = fixpoint and edge_exact and all(
        relation.exact for relation in paths.values()
    )
    return ReachabilityResult(False, exact_refutation, rounds)
