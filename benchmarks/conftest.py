"""Shared fixtures and result collection for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  Besides the
pytest-benchmark timing, the generated rows are written to ``benchmarks/out/``
as Markdown so they can be compared side by side with the paper (this is what
EXPERIMENTS.md references).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import BoundStore

OUTPUT_DIR = pathlib.Path(__file__).parent / "out"


def write_markdown_table(name: str, rows: list[dict]) -> pathlib.Path:
    """Write rows as a Markdown table under benchmarks/out/ and return the path."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.md"
    if not rows:
        path.write_text("(no rows)\n")
        return path
    headers = list(rows[0].keys())
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(h, "")) for h in headers) + " |")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def bound_store() -> BoundStore:
    """The persistent bound store every benchmark driver routes through.

    Rooted under ``benchmarks/out/store`` (generated, git-ignored): a kernel
    derived by a previous benchmark run is never re-derived, so a warm
    re-run times the store — what a production service sees — without
    touching the user's real shared store.  Delete the directory (or run
    ``python -m repro cache clear --root benchmarks/out/store``) to time
    cold derivations again; ``perfbench/run.py --workload derive-cold``
    measures cold vs. warm explicitly either way.
    """
    return BoundStore(OUTPUT_DIR / "store")


@pytest.fixture(scope="session")
def fast_kernel_names() -> list[str]:
    """Kernels whose derivation is fast enough for per-benchmark timing."""
    return [
        "gemm", "2mm", "atax", "bicg", "mvt", "gesummv", "trisolv",
        "cholesky", "lu", "covariance", "correlation", "floyd-warshall",
        "durbin", "syrk", "syr2k", "trmm", "symm", "jacobi-1d", "seidel-2d",
        "gemver", "doitgen", "gramschmidt", "nussinov", "deriche",
    ]
