"""Benchmark regenerating Table 1: parametric OI bounds for PolyBench.

For every kernel the harness derives the I/O lower bound, forms the
operational-intensity upper bound ``OI_up = #ops / Q_low`` and tabulates it
next to the paper's reported ``OI_up`` and manually derived ``OI_manual``.
The derivation itself is the benchmarked operation (the paper reports
"less than a second per kernel on a basic computer").
"""

from __future__ import annotations

import pytest

from repro.polybench import analyze_suite, table1_rows

from conftest import write_markdown_table


@pytest.mark.benchmark(group="table1-derivation")
@pytest.mark.parametrize(
    "kernel",
    ["gemm", "cholesky", "lu", "covariance", "atax", "durbin", "trisolv", "floyd-warshall"],
)
def test_table1_single_kernel_derivation(benchmark, kernel):
    """Time the raw IOLB derivation of one kernel (deliberately store-free:
    every benchmark round must run the actual derivation, not a store hit —
    warm-store latency is measured separately by perfbench/run.py)."""
    [analysis] = benchmark(analyze_suite, [kernel])
    assert analysis.result.asymptotic is not None


@pytest.mark.benchmark(group="table1-full")
def test_table1_full_table(benchmark, fast_kernel_names, bound_store):
    """Regenerate the full Table 1 for the fast subset of kernels."""

    def build_table():
        return table1_rows(analyze_suite(fast_kernel_names, store=bound_store))

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    path = write_markdown_table("table1", rows)
    assert path.exists()
    assert len(rows) == len(fast_kernel_names)
