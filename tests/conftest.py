"""Suite-wide fixtures: keep every test hermetic w.r.t. the bound store.

``BoundStore`` reads ``$REPRO_STORE`` (default root) and
``$REPRO_STORE_BUDGET`` (eviction budget) — both documented user knobs.  A
developer or CI runner who has them exported must not see spurious failures
(e.g. a budget evicting entries a test just wrote), and no test may ever
touch the user's real ``~/.cache/repro``.  Tests that exercise the env
handling re-set the variables explicitly via ``monkeypatch.setenv``.

This conftest also registers the ``slow`` marker: the differential
reachability sweeps (tests/rel/) are thorough but long, so they are skipped
by default and opt in with ``--runslow``; the tier-1 run stays fast.

The full-suite derivation is expensive (~30 s), so it runs at most once per
test session (``cold_suite``), routed through a session-private
:class:`BoundStore`.  The golden-bound regression tests and the decoder
oracle read its results; the warm-run test re-runs the suite against the
now-populated store and asserts it derives nothing.  The run also records
the argument of every clamp at zero it builds, for the clamp oracle.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest
import sympy

from repro.analysis import BoundStore, analyzer, reset_derivation_count
from repro.core import kpartition, wavefront
from repro.core.bounds import clamp_at_zero
from repro.ir import reset_expand_count
from repro.polybench import KernelAnalysis, analyze_suite

#: The modules that clamp a bound at zero; each imports ``clamp_at_zero``.
CLAMP_SITES = (kpartition, wavefront, analyzer)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (e.g. the differential reachability sweeps)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running sweep; skipped unless --runslow is given"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow sweep; use --runslow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _isolate_bound_store_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_BUDGET", raising=False)


@dataclass
class ColdSuiteRun:
    """Result of the one cold full-suite derivation of this test session."""

    analyses: list[KernelAnalysis]
    seconds: float
    derivations: int
    cdag_expansions: int
    clamps: list[sympy.Expr]

    @property
    def by_name(self) -> dict[str, KernelAnalysis]:
        return {analysis.spec.name: analysis for analysis in self.analyses}


@contextmanager
def recorded_clamps():
    """Record the argument of every ``clamp_at_zero`` call made in-process."""
    recorded: list[sympy.Expr] = []

    def recording(expr):
        recorded.append(expr)
        return clamp_at_zero(expr)

    with pytest.MonkeyPatch.context() as patch:
        for module in CLAMP_SITES:
            patch.setattr(module, "clamp_at_zero", recording)
        yield recorded


@pytest.fixture(scope="session")
def clamp_recorder():
    """:func:`recorded_clamps`, for tests that derive programs of their own."""
    return recorded_clamps


@pytest.fixture(scope="session")
def suite_store(tmp_path_factory) -> BoundStore:
    """A session-private bound store (no cross-run or cross-suite state)."""
    return BoundStore(tmp_path_factory.mktemp("bound-store"))


@pytest.fixture(scope="session")
def cold_suite(suite_store) -> ColdSuiteRun:
    """Derive every registered kernel once, cold, through the session store."""
    reset_derivation_count()
    reset_expand_count()
    with recorded_clamps() as clamps:
        start = time.perf_counter()
        analyses = analyze_suite(store=suite_store)
        seconds = time.perf_counter() - start
    return ColdSuiteRun(
        analyses, seconds, reset_derivation_count(), reset_expand_count(), clamps
    )
