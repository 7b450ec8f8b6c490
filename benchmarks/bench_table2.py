"""Benchmark regenerating Table 2 / Appendix C: complete lower-bound formulae.

Produces, for each kernel, the complete symbolic expression Q_low (with floor
and max) and its asymptotically dominant term — the two columns of the
paper's Table 2.
"""

from __future__ import annotations

import pytest

from repro.polybench import analyze_suite, table2_rows

from conftest import write_markdown_table

KERNELS = [
    "gemm", "2mm", "cholesky", "lu", "trisolv", "atax", "mvt", "covariance",
    "durbin", "floyd-warshall", "syrk", "trmm", "jacobi-1d", "seidel-2d",
]


@pytest.mark.benchmark(group="table2")
def test_table2_formulae(benchmark, bound_store):
    """Regenerate the complete + asymptotic formulae for a kernel subset."""

    def build_table():
        return table2_rows(analyze_suite(KERNELS, store=bound_store))

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    path = write_markdown_table("table2", rows)
    assert path.exists()
    assert all(row["Q_low (asymptotic)"] for row in rows)


@pytest.mark.benchmark(group="table2-single")
@pytest.mark.parametrize("kernel", ["gemm", "cholesky", "jacobi-1d", "durbin"])
def test_table2_single_formula(benchmark, kernel):
    """Time formula extraction (derivation + simplification) per kernel —
    store-free so every round measures the derivation, not a store hit."""
    [analysis] = benchmark(analyze_suite, [kernel])
    assert analysis.result.expression is not None
