"""DFG-paths, their relations, kernels and generation (Sec. 5.1-5.2, Alg. 3).

A DFG-path ending at a statement ``S`` summarises one *reuse direction* of the
computation.  Only two kinds matter for the K-partition reasoning:

* **chain circuits** — cycles ``S -> ... -> S`` whose composed relation is a
  translation ``S[x] -> S[x + b]``; the associated geometric projection is the
  orthogonal projection along ``b`` and its kernel is ``span(b)``;
* **broadcast paths** — paths whose inverse relation is an affine function
  ``S[x] -> Src[A x + b]`` with ``A`` rank-deficient; the projection is the
  map ``A`` itself and its kernel is ``ker(A)``.

Edges are stored in inverse "read function" form (sink -> source), so the
inverse path relation is simply the composition of the edge functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import DFG, FlowDep
from ..linalg import Subspace
from ..sets import AffineFunction, ParamSet

BROADCAST = "broadcast"
CHAIN = "chain"

DEFAULT_MAX_PATHS = 64
DEFAULT_MAX_LENGTH = 4


@dataclass
class DFGPath:
    """A DFG-path ending at ``sink`` with composed inverse relation ``function``."""

    sink: str
    source: str
    edges: tuple[FlowDep, ...]
    function: AffineFunction            # sink coordinates -> source coordinates
    domain: ParamSet                    # sink sub-domain on which the path applies
    kind: str                           # BROADCAST or CHAIN
    intermediate_functions: tuple[tuple[str, AffineFunction], ...] = ()
    #: functions from the sink space to every intermediate statement of the
    #: path (including the source), needed for the may-spill computation.

    @property
    def length(self) -> int:
        return len(self.edges)

    def kernel(self) -> Subspace:
        """Kernel of the geometric projection attached to the path (Alg. 4, Ker)."""
        if self.kind == CHAIN:
            delta = self.function.translation_vector()
            direction = [-d for d in delta]
            if all(x == 0 for x in direction):
                raise ValueError("chain circuit with zero translation")
            return Subspace.span([direction], dim_ambient=self.function.domain_space.dim)
        return self.function.kernel()

    def describe(self) -> str:
        chain = " <- ".join([self.sink] + [e.source for e in reversed(self.edges)])
        return f"{self.kind} path {chain}"


def _edge_is_injective(dep: FlowDep) -> bool:
    """True when the forward edge relation is injective.

    In read-function form the forward relation (source -> sink) is injective
    exactly when the read function (sink -> source) is injective, i.e. its
    linear part has a trivial kernel.
    """
    return dep.function.kernel().is_zero()


def genpaths(
    dfg: DFG,
    statement: str,
    restrict_domain: ParamSet | None = None,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_length: int = DEFAULT_MAX_LENGTH,
) -> list[DFGPath]:
    """Generate broadcast paths and chain circuits ending at ``statement`` (Alg. 3).

    The traversal is a bounded backward DFS.  A path may only be extended past
    its current source when all its current edges are injective (the paper's
    "all edges but the first are injective" condition).  Paths whose sink-side
    domain is empty are dropped.  ``max_paths`` and ``max_length`` bound the
    search; there is no wall-clock deadline, so the paths (and the bound built
    from them) do not depend on the speed or load of the host.
    """
    stmt_domain = dfg.program.statement(statement).domain
    if restrict_domain is not None:
        stmt_domain = stmt_domain.intersect(restrict_domain)
    sink_space = stmt_domain.space

    results: list[DFGPath] = []
    seen_signatures: set[tuple] = set()

    # Work items: (edges from sink backwards, composed function, domain, all_injective)
    stack: list[tuple[tuple[FlowDep, ...], AffineFunction, ParamSet, bool]] = []
    for dep in dfg.edges_into(statement):
        domain = stmt_domain.intersect(dep.domain)
        if domain.is_empty():
            continue
        stack.append(((dep,), dep.function, domain, _edge_is_injective(dep)))

    while stack:
        if len(results) >= max_paths:
            break
        edges, function, domain, all_injective = stack.pop()
        source = edges[-1].source

        classified = _classify(statement, source, function)
        if classified is not None:
            signature = (source, tuple(repr(e) for e in function.exprs), classified)
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                intermediates = _intermediate_functions(edges)
                results.append(
                    DFGPath(
                        sink=statement,
                        source=source,
                        edges=edges,
                        function=function,
                        domain=domain,
                        kind=classified,
                        intermediate_functions=intermediates,
                    )
                )

        # Extend backwards past `source` if it is a statement and the current
        # path consists solely of injective edges (so they can become
        # non-first edges of a longer path).
        if len(edges) >= max_length or not all_injective:
            continue
        if source not in dfg.program.statements:
            continue
        if source == statement:
            continue  # circuits are only extended up to their first return
        for dep in dfg.edges_into(source):
            # New composed function: sink -> dep.source, by substituting the
            # current function (sink -> source) into dep.function (source -> dep.source).
            try:
                composed = dep.function.compose_after(function)
            except ValueError:
                continue
            # Restrict the sink domain to points whose image lies in the new
            # edge's applicability domain.
            source_dims = dfg.program.statement(source).dims
            preimage_constraints = []
            for piece in dep.domain.pieces:
                preimage_constraints = function.preimage_constraints(piece, source_dims)
                break
            new_domain_pieces = []
            for piece in domain.pieces:
                new_domain_pieces.append(piece.add_constraints(preimage_constraints))
            new_domain = ParamSet(domain.space, new_domain_pieces)
            if new_domain.is_empty():
                continue
            stack.append(
                (edges + (dep,), composed, new_domain,
                 all_injective and _edge_is_injective(dep))
            )

    results.sort(key=lambda p: (p.kernel().dim, p.length, p.source))
    return results


def _classify(sink: str, source: str, function: AffineFunction) -> str | None:
    """Classify a composed path relation as chain circuit, broadcast path, or neither."""
    if source == sink and function.is_translation():
        delta = function.translation_vector()
        if any(d != 0 for d in delta):
            return CHAIN
        return None
    if not function.kernel().is_zero():
        return BROADCAST
    return None


def _intermediate_functions(edges: tuple[FlowDep, ...]) -> tuple[tuple[str, AffineFunction], ...]:
    """Functions from the sink space to every statement visited along the path."""
    functions: list[tuple[str, AffineFunction]] = []
    current: AffineFunction | None = None
    for dep in edges:
        current = dep.function if current is None else dep.function.compose_after(current)
        functions.append((dep.source, current))
    return tuple(functions)
