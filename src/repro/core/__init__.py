"""The IOLB algorithms: K-partition bounds, wavefront bounds, decomposition.

These are the building blocks; :class:`repro.analysis.Analyzer` runs them
as the derivation of Algorithm 6 and is the public entry point.
"""

from .bounds import IOBoundResult, S_SYMBOL, SubBound, asymptotic_leading, evaluate
from .brascamp_lieb import ExponentSolution, rank_constraints, solve_exponents
from .decomposition import combine_sub_q, may_spill_interferes, remove_may_spill
from .interference import coeff_interf, path_source_set, paths_independent
from .kpartition import sub_param_q_by_partition
from .oi import (
    Classification,
    OIReport,
    PAPER_CACHE_WORDS,
    PAPER_MACHINE_BALANCE,
    classify,
    oi_numeric,
    oi_report,
    oi_upper_symbolic,
)
from .paths import BROADCAST, CHAIN, DFGPath, genpaths
from .wavefront import sub_param_q_by_wavefront

__all__ = [
    "BROADCAST",
    "CHAIN",
    "Classification",
    "DFGPath",
    "ExponentSolution",
    "IOBoundResult",
    "OIReport",
    "PAPER_CACHE_WORDS",
    "PAPER_MACHINE_BALANCE",
    "S_SYMBOL",
    "SubBound",
    "asymptotic_leading",
    "classify",
    "coeff_interf",
    "combine_sub_q",
    "evaluate",
    "genpaths",
    "may_spill_interferes",
    "oi_numeric",
    "oi_report",
    "oi_upper_symbolic",
    "path_source_set",
    "paths_independent",
    "rank_constraints",
    "remove_may_spill",
    "solve_exponents",
    "sub_param_q_by_partition",
    "sub_param_q_by_wavefront",
]
