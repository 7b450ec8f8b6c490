"""PolyBench/C 4.2.1 kernels encoded as affine programs, plus suite drivers."""

from .registry import (
    CATEGORY_LOW_REUSE,
    CATEGORY_OVERESTIMATED,
    CATEGORY_TILEABLE,
    CATEGORY_WAVEFRONT,
    KernelSpec,
    all_kernels,
    get_kernel,
    kernel_names,
)
from .suite import (
    KernelAnalysis,
    analyze_suite,
    analyze_suite_stream,
    figure6_rows,
    simulate_tiled_oi,
    table1_rows,
    table2_rows,
    untiled_oi,
)

__all__ = [
    "CATEGORY_LOW_REUSE",
    "CATEGORY_OVERESTIMATED",
    "CATEGORY_TILEABLE",
    "CATEGORY_WAVEFRONT",
    "KernelAnalysis",
    "KernelSpec",
    "all_kernels",
    "analyze_suite",
    "analyze_suite_stream",
    "figure6_rows",
    "get_kernel",
    "kernel_names",
    "simulate_tiled_oi",
    "table1_rows",
    "table2_rows",
    "untiled_oi",
]
