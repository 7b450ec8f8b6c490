"""Oracle for ``clamp_at_zero``: the evaluated ``sympy.Max`` it replaced.

Algorithm 6 clamps every K-partition and wavefront sub-bound at zero, and
``combine_plan`` clamps the combined bound.  ``clamp_at_zero`` must build
exactly the expression an evaluated ``sympy.Max(0, x)`` builds -- the same
``srepr``, so stored bounds keep their bytes -- without the evaluated
``Max``'s sign search (``MinMaxBase._find_localzeros``) on symbolic
arguments.  The evaluated form lives here only, as the reference.
"""

import pytest
import sympy
from sympy.functions.elementary.miscellaneous import MinMaxBase

from repro.analysis import AnalysisConfig, Analyzer
from repro.core.bounds import S_SYMBOL, clamp_at_zero
from repro.fuzz.generator import random_program
from repro.polybench import analyze_suite
from repro.sets import sym

N, M = sym("N"), sym("M")

FUZZ_PROFILES = ("small", "wide", "deep")
FUZZ_SEEDS = range(12)
#: A campaign derives with the pipeline config (depth 0, K-partition only)
#: and with both strategies at depth 1 (the sandwich oracle).
FUZZ_CONFIGS = (AnalysisConfig(max_depth=0), AnalysisConfig())


def evaluated_clamp(expr: sympy.Expr) -> sympy.Expr:
    return sympy.Max(sympy.Integer(0), expr)


def mismatches(clamps: list[sympy.Expr]) -> list[tuple[str, str, str]]:
    found = []
    for expr in clamps:
        ours, reference = sympy.srepr(clamp_at_zero(expr)), sympy.srepr(evaluated_clamp(expr))
        if ours != reference:
            found.append((sympy.srepr(expr), ours, reference))
    return found


class TestUnitCases:
    @pytest.mark.parametrize(
        "number",
        [
            sympy.Integer(0),
            sympy.Integer(3),
            sympy.Rational(7, 2),
            sympy.Integer(-2),
            sympy.Rational(-47, 5),
            sympy.oo,
            -sympy.oo,
        ],
        ids=str,
    )
    def test_numbers_fold_as_evaluated_max_folds_them(self, number):
        # ``oo`` and ``-oo`` have no finite sign: only the number rule folds them.
        assert sympy.srepr(clamp_at_zero(number)) == sympy.srepr(evaluated_clamp(number))

    def test_decided_signs_pick_the_argument_or_zero(self):
        assert clamp_at_zero(N**2) == N**2
        assert clamp_at_zero(-(N**2)) == 0
        for expr in (N**2, -(N**2), N**2 + S_SYMBOL**2):
            assert sympy.srepr(clamp_at_zero(expr)) == sympy.srepr(evaluated_clamp(expr))

    def test_undecided_sign_keeps_the_evaluated_argument_order(self):
        for expr in (N - M, M - N, N * M - S_SYMBOL, sympy.floor(N / S_SYMBOL) * M - N):
            clamped, reference = clamp_at_zero(expr), evaluated_clamp(expr)
            assert isinstance(clamped, sympy.Max)
            assert clamped.args == reference.args
            assert sympy.srepr(clamped) == sympy.srepr(reference)


class TestCorpus:
    def test_suite_clamps_match_evaluated_max(self, cold_suite):
        # At least the combined bound of every kernel is clamped.
        assert len(cold_suite.clamps) >= len(cold_suite.analyses)
        assert any(not expr.is_number for expr in cold_suite.clamps)
        assert mismatches(cold_suite.clamps) == []

    def test_fuzz_clamps_match_evaluated_max(self, clamp_recorder):
        with clamp_recorder() as clamps:
            for profile in FUZZ_PROFILES:
                for seed in FUZZ_SEEDS:
                    program = random_program(seed, profile)
                    for config in FUZZ_CONFIGS:
                        Analyzer(config).analyze(program)
        assert any(not expr.is_number for expr in clamps)
        assert mismatches(clamps) == []


def test_derivation_makes_no_symbolic_sign_search(monkeypatch, clamp_recorder):
    """Regression guard: no evaluated ``Max``/``Min`` of a symbolic argument."""
    searched: list[tuple] = []
    find_localzeros = MinMaxBase._find_localzeros.__func__

    def recording(cls, values, **options):
        searched.append(tuple(values))
        return find_localzeros(cls, values, **options)

    monkeypatch.setattr(MinMaxBase, "_find_localzeros", classmethod(recording))
    with clamp_recorder() as clamps:
        analyze_suite(["gemm", "lu", "jacobi-2d"])
        Analyzer(AnalysisConfig()).analyze(random_program(3, "wide"))
    # The guard is not vacuous: the derivations clamped symbolic bounds.
    assert any(not expr.is_number for expr in clamps)
    symbolic = [values for values in searched if not all(v.is_number for v in values)]
    assert symbolic == []
