"""Benchmarks for the paper's worked examples (Fig. 1, Fig. 3, Appendix A/B).

These exercise each stage of the pipeline separately — path generation,
Brascamp-Lieb exponent selection, counting, full derivation — so regressions
in any substrate show up as timing or result changes.
"""

from __future__ import annotations

import pytest
import sympy

from repro.analysis import AnalysisConfig, Analyzer
from repro.core import genpaths
from repro.core.bounds import S_SYMBOL
from repro.ir import DFG, ProgramBuilder
from repro.polybench import get_kernel
from repro.sets import card, parse_set, sym


def _example1():
    return (
        ProgramBuilder("example1", ["M", "N"])
        .add_array("[N] -> { A[i] : 0 <= i < N }")
        .add_array("[M] -> { C[t] : 0 <= t < M }")
        .add_statement("[M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_dependence("[M, N] -> { S[t, i] -> S[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S[t, i] -> C[t] : 0 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .build()
    )


# The three derivation benchmarks below are deliberately store-free: every
# benchmark round must execute the full derivation, not a ~ms store hit
# (warm-store latency is measured by ``perfbench/run.py``).


@pytest.mark.benchmark(group="examples")
def test_example1_full_derivation(benchmark):
    """Fig. 1 / Sec. 5.3: the derived bound must be ~ M*N/S."""
    program = _example1()
    result = benchmark(Analyzer(AnalysisConfig(max_depth=0)).analyze, program)
    expected = sym("M") * sym("N") / S_SYMBOL
    assert sympy.simplify(result.asymptotic / expected) == 1


@pytest.mark.benchmark(group="examples")
def test_appendix_a_cholesky(benchmark):
    """Appendix A: cholesky bound ~ N^3 / (6 sqrt(S)), OI_up = 2 sqrt(S)."""
    spec = get_kernel("cholesky")
    result = benchmark(Analyzer(AnalysisConfig(max_depth=0)).analyze, spec.program)
    expected = sym("N") ** 3 / (6 * sympy.sqrt(S_SYMBOL))
    assert sympy.simplify(result.asymptotic / expected) == 1


@pytest.mark.benchmark(group="examples")
def test_appendix_b_lu(benchmark):
    """Appendix B: LU bound ~ 2 N^3 / (3 sqrt(S))."""
    spec = get_kernel("lu")
    result = benchmark(Analyzer(AnalysisConfig(max_depth=0)).analyze, spec.program)
    expected = 2 * sym("N") ** 3 / (3 * sympy.sqrt(S_SYMBOL))
    assert sympy.simplify(result.asymptotic / expected) == 1


@pytest.mark.benchmark(group="examples-substrates")
def test_genpaths_cholesky(benchmark):
    """Path generation (Alg. 3) on the cholesky DFG."""
    dfg = DFG.from_program(get_kernel("cholesky").program)
    paths = benchmark(genpaths, dfg, "S3")
    assert len(paths) >= 3


@pytest.mark.benchmark(group="examples-substrates")
def test_parametric_counting(benchmark):
    """Symbolic counting of the cholesky S3 domain (the barvinok substitute)."""
    domain = parse_set(
        "[N] -> { S3[k, i, j] : 1 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }"
    )
    result = benchmark(card, domain)
    n = sym("N")
    assert sympy.expand(result - (n ** 3 / 6 - n ** 2 / 2 + n / 3)) == 0
