"""repro — a reproduction of IOLB (Olivry et al., PLDI 2020).

Automated derivation of parametric data-movement (I/O) lower bounds for
affine programs, and of the corresponding upper bounds on operational
intensity (OI).

Typical usage::

    from repro import polybench
    from repro.analysis import AnalysisConfig, Analyzer

    spec = polybench.get_kernel("gemm")
    result = Analyzer(AnalysisConfig()).analyze(spec.program)
    print(result.asymptotic)        # ~ 2*Ni*Nj*Nk/sqrt(S)
    print(result.oi_upper_bound())  # ~ sqrt(S)

``repro.polybench.analyze_suite`` runs registered kernels through the same
engine; the ``python -m repro`` commands sit on top of it.
"""

from . import analysis, core, ir, linalg, pebble, polybench, rel, sets, upper
from .analysis import AnalysisConfig, Analyzer
from .ir import AffineProgram, ProgramBuilder

__all__ = [
    "AffineProgram",
    "AnalysisConfig",
    "Analyzer",
    "ProgramBuilder",
    "analysis",
    "core",
    "ir",
    "linalg",
    "pebble",
    "polybench",
    "rel",
    "sets",
    "upper",
]

__version__ = "1.6.0"
