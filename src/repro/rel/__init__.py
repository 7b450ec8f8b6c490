"""repro.rel — symbolic affine relations with transitive closure.

The subsystem behind the Algorithm-5-faithful wavefront validation
(replacing the concrete-CDAG expansion of DESIGN.md deviation 3, retired):

* :class:`AffineRelation` — parametric affine relations (ISL-map analogue)
  over the :mod:`repro.sets` substrate, with union / intersect / compose /
  inverse / domain / range / apply;
* :func:`transitive_closure` — closure with an exactness certificate
  (:class:`ClosureResult`): exact for translation-family relations, an
  over- or under-approximation (by ``direction``) otherwise;
* :func:`graph_reachability` / :func:`check_universal_reachability` —
  Kleene-style reachability over a graph of relations (the DFG), the query
  the wavefront completeness hypothesis reduces to.  It is the only decision
  procedure behind a wavefront bound; ISL serves only as a test-time oracle
  (``tests/rel/test_isl_oracle.py``), so a bound never depends on whether
  ``islpy`` is installed.
"""

from .closure import (
    ClosureResult,
    ReachabilityResult,
    check_universal_reachability,
    graph_reachability,
    reflexive_closure,
    transitive_closure,
)
from .relation import AffineRelation, in_name, out_name, translation_of_piece

__all__ = [
    "AffineRelation",
    "ClosureResult",
    "ReachabilityResult",
    "check_universal_reachability",
    "graph_reachability",
    "in_name",
    "out_name",
    "reflexive_closure",
    "transitive_closure",
    "translation_of_piece",
]
