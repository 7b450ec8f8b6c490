"""Integration tests: derived bounds for representative PolyBench kernels.

These check the *shape* of the reproduced Table 1 — which kernels get a
sqrt(S)-like OI upper bound, which are input-bound, which are wavefront
limited — and the soundness of the bounds against simulated schedules.
"""

import pytest
import sympy

from repro.analysis import AnalysisConfig, derivation_count, reset_derivation_count
from repro.core.bounds import S_SYMBOL
from repro.ir import CDAG
from repro.pebble import lexicographic_schedule, simulate_schedule
from repro.polybench import analyze_suite, get_kernel
from repro.polybench.suite import _kernel_config
from repro.sets import sym


def oi_degree_in_sqrt_s(expr) -> sympy.Expr:
    """Exponent of S in an OI expression (1/2 for sqrt(S)-like bounds)."""
    return sympy.degree(sympy.Poly(sympy.powsimp(expr ** 2), S_SYMBOL)) / 2


class TestCategory1Tileable:
    def test_gemm_oi_is_sqrt_s(self):
        [analysis] = analyze_suite(["gemm"])
        assert sympy.simplify(analysis.oi_upper - sympy.sqrt(S_SYMBOL)) == 0

    def test_cholesky_matches_appendix_a(self):
        [analysis] = analyze_suite(["cholesky"])
        expected = sym("N") ** 3 / (6 * sympy.sqrt(S_SYMBOL))
        assert sympy.simplify(analysis.result.asymptotic / expected) == 1
        assert sympy.simplify(analysis.oi_upper - 2 * sympy.sqrt(S_SYMBOL)) == 0

    def test_lu_matches_appendix_b(self):
        [analysis] = analyze_suite(["lu"])
        expected = 2 * sym("N") ** 3 / (3 * sympy.sqrt(S_SYMBOL))
        assert sympy.simplify(analysis.result.asymptotic / expected) == 1

    def test_covariance_oi_matches_paper(self):
        [analysis] = analyze_suite(["covariance"])
        assert sympy.simplify(analysis.oi_upper - 2 * sympy.sqrt(S_SYMBOL)) == 0

    @pytest.mark.parametrize("name", ["syrk", "trmm", "floyd-warshall", "2mm"])
    def test_oi_scales_like_sqrt_s(self, name):
        [analysis] = analyze_suite([name])
        ratio = sympy.simplify(analysis.oi_upper / sympy.sqrt(S_SYMBOL))
        # The OI upper bound must scale exactly like sqrt(S): dividing by
        # sqrt(S) removes every occurrence of the cache size.
        assert not ratio.has(S_SYMBOL)

    def test_jacobi_1d_oi_matches_paper_24s(self):
        [analysis] = analyze_suite(["jacobi-1d"])
        assert sympy.simplify(analysis.oi_upper - 24 * S_SYMBOL) == 0


class TestCategory2LowReuse:
    @pytest.mark.parametrize("name,expected", [("atax", 4), ("bicg", 4), ("mvt", 4),
                                               ("gesummv", 2), ("trisolv", 2)])
    def test_constant_oi(self, name, expected):
        [analysis] = analyze_suite([name])
        assert sympy.simplify(analysis.oi_upper - expected) == 0

    def test_atax_bound_is_input_size(self):
        [analysis] = analyze_suite(["atax"])
        assert sympy.expand(analysis.result.asymptotic - sym("M") * sym("N")) == 0


class TestCategory3Wavefront:
    def test_durbin_constant_oi(self):
        [analysis] = analyze_suite(["durbin"])
        assert analysis.oi_upper.is_number
        assert analysis.oi_upper <= 6  # paper reports 4

    def test_durbin_bound_quadratic(self):
        [analysis] = analyze_suite(["durbin"])
        expected = sym("N") ** 2 / 2
        assert sympy.simplify(analysis.result.asymptotic / expected) == 1

    def test_durbin_uses_wavefront_method(self):
        [analysis] = analyze_suite(["durbin"])
        assert any(b.method == "wavefront" for b in analysis.result.sub_bounds)


class TestSoundnessAgainstSimulation:
    """The derived bounds can never exceed the loads of a legal schedule."""

    CASES = [
        ("gemm", {"Ni": 6, "Nj": 6, "Nk": 6}, 8),
        ("cholesky", {"N": 8}, 8),
        ("lu", {"N": 8}, 8),
        ("atax", {"M": 8, "N": 8}, 6),
        ("durbin", {"N": 10}, 4),
        ("trisolv", {"N": 10}, 4),
        ("covariance", {"M": 6, "N": 6}, 8),
    ]

    @pytest.mark.parametrize("name,params,cache", CASES)
    def test_lower_bound_below_simulated_loads(self, name, params, cache):
        spec = get_kernel(name)
        [analysis] = analyze_suite([name])
        cdag = CDAG.expand(spec.program, params)
        schedule = lexicographic_schedule(cdag)
        simulated = simulate_schedule(cdag, schedule, cache, policy="opt")
        bound = analysis.result.evaluate({**params, "S": cache})
        assert bound <= simulated.loads + 1e-9, (
            f"{name}: bound {bound} exceeds simulated {simulated.loads}"
        )


class TestSuiteDriver:
    def test_kernel_config_is_registered_depth_then_overrides(self):
        spec = get_kernel("durbin")
        assert _kernel_config(spec) == AnalysisConfig(max_depth=spec.max_depth)
        assert _kernel_config(spec, max_depth=0, gamma=0.5) == AnalysisConfig(
            max_depth=0, gamma=0.5
        )

    def test_config_keyword_is_not_a_second_channel(self):
        """Overrides are config fields only; a whole ``config=`` is refused
        rather than silently ignored."""
        with pytest.raises(TypeError):
            analyze_suite(["atax"], config=AnalysisConfig(max_depth=0))

    def test_results_align_with_requests_even_with_duplicates(self):
        names = ["gemm", "atax", "mvt", "gemm"]
        reset_derivation_count()
        analyses = analyze_suite(names, max_depth=0)
        assert [a.spec.name for a in analyses] == names
        assert [a.result.program_name for a in analyses] == names
        # The duplicate shares one derivation rather than re-deriving.
        assert derivation_count() == 3
