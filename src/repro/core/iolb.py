"""Keyword-argument entry point for the IOLB driver (Sec. 7, Algorithm 6).

The derivation itself lives in :mod:`repro.analysis`: the registered
``kpartition`` and ``wavefront`` strategies plan independent tasks,
:func:`repro.analysis.stream_analyses` schedules them and combines each
program's results, and :class:`repro.analysis.Analyzer` is its front end.
:func:`derive_bounds` is a public alias over ``Analyzer(config).analyze``.
A derivation runs these steps:

1. build the DFG;
2. for every statement, repeatedly search for a path combination (Alg. 3),
   grow the kernel subgroup lattice (Alg. 2) and derive a K-partition bound
   (Alg. 4), removing the covered may-spill region before looking for another
   sub-CDAG of the same statement;
3. for every statement and loop-parametrisation depth, attempt a wavefront
   bound (Alg. 5 / Cor. 6.3);
4. combine all sub-bounds with the non-disjoint decomposition lemma
   (Alg. 1), add the compulsory input misses, and clamp at zero:

       Q_low  =  |inputs|  +  max(0, combined sub-bounds).
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.config import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_GAMMA,
    DEFAULT_MAX_SUBCDAGS_PER_STATEMENT,
    DEFAULT_PARAM_VALUE,
    AnalysisConfig,
)
from ..analysis.strategies import MAX_WORKING_PIECES
from ..ir import AffineProgram
from .bounds import IOBoundResult

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_GAMMA",
    "DEFAULT_MAX_SUBCDAGS_PER_STATEMENT",
    "DEFAULT_PARAM_VALUE",
    "MAX_WORKING_PIECES",
    "derive_bounds",
]


def derive_bounds(
    program: AffineProgram,
    instance: Mapping[str, int] | None = None,
    max_depth: int = 1,
    gamma: float = DEFAULT_GAMMA,
    max_subcdags_per_statement: int = DEFAULT_MAX_SUBCDAGS_PER_STATEMENT,
) -> IOBoundResult:
    """Derive a parametric I/O lower bound for ``program``.

    An alias over :class:`repro.analysis.Analyzer`; use the analyzer
    directly for batching, caching, executors and custom strategies.

    Parameters
    ----------
    program:
        The affine program (statements, input arrays, flow dependences).
    instance:
        Heuristic parameter values used only to rank competing sub-bounds
        (the returned bound is valid for *all* parameter values).  Defaults
        to ``DEFAULT_PARAM_VALUE`` (10**5) for every program parameter and
        ``DEFAULT_CACHE_SIZE`` (256) for the cache size ``S``.
    max_depth:
        Maximum loop-parametrisation depth explored by the wavefront method.
    gamma:
        Fraction of the statement domain a path must cover to be considered.

    A wavefront bound is kept only when the reachability hypothesis of
    Cor. 6.3 is certified symbolically.
    """
    # Imported here rather than at module level: repro.analysis.analyzer
    # imports repro.core submodules, so a load-time import would be circular
    # whichever of the two packages is imported first.
    from ..analysis.analyzer import Analyzer

    config = AnalysisConfig(
        instance=instance,
        gamma=gamma,
        max_depth=max_depth,
        max_subcdags_per_statement=max_subcdags_per_statement,
    )
    return Analyzer(config).analyze(program)
