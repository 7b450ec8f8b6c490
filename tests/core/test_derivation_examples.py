"""End-to-end tests of the derivation on the paper's worked examples.

These tests check the *asymptotically dominant term* of the derived bounds
against the formulae stated in the paper (Sec. 2, Sec. 5.3, Appendix A/B,
Fig. 3) and the soundness of the bounds against brute-force cache simulation
on small explicit CDAGs.
"""

import sympy

from repro.analysis import AnalysisConfig, Analyzer
from repro.core import (
    BROADCAST,
    CHAIN,
    asymptotic_leading,
    coeff_interf,
    genpaths,
    paths_independent,
    sub_param_q_by_wavefront,
)
from repro.core.bounds import S_SYMBOL
from repro.ir import CDAG, DFG
from repro.pebble import lexicographic_schedule, simulate_schedule
from repro.sets import sym


def leading_ratio(expr, reference, params):
    """expr / reference, asymptotically simplified; 1 means exact match."""
    return sympy.simplify(
        asymptotic_leading(expr, set(params)) / reference
    )


class TestGenpaths:
    def test_example1_paths(self, example1):
        dfg = DFG.from_program(example1)
        paths = genpaths(dfg, "S")
        kinds = sorted(p.kind for p in paths)
        assert kinds.count(CHAIN) == 1
        assert kinds.count(BROADCAST) >= 1
        chain = next(p for p in paths if p.kind == CHAIN)
        assert chain.function.translation_vector() == (-1, 0)

    def test_gemm_paths_and_kernels(self, gemm):
        dfg = DFG.from_program(gemm)
        paths = genpaths(dfg, "S")
        sources = {p.source for p in paths}
        assert {"A", "B", "S"} <= sources
        kernel_dims = {p.source: p.kernel().dim for p in paths}
        assert kernel_dims["A"] == 1 and kernel_dims["B"] == 1 and kernel_dims["S"] == 1

    def test_genpaths_does_not_read_the_clock(self, gemm, monkeypatch):
        """The DFS is bounded by path count and length only: a clock that
        jumps a minute per read (a slow or loaded host) finds the same paths."""
        import time

        dfg = DFG.from_program(gemm)
        expected = [(p.source, p.kind, p.length) for p in genpaths(dfg, "S")]
        now = [time.monotonic()]

        def jumping_clock():
            now[0] += 60.0
            return now[0]

        monkeypatch.setattr(time, "monotonic", jumping_clock)
        assert [(p.source, p.kind, p.length) for p in genpaths(dfg, "S")] == expected

    def test_gemm_paths_pairwise_independent(self, gemm):
        dfg = DFG.from_program(gemm)
        paths = genpaths(dfg, "S")
        domain = dfg.program.statement("S").domain
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                if paths[i].source != paths[j].source:
                    assert paths_independent(dfg, paths[i], paths[j], domain)

    def test_gemm_betas_are_one(self, gemm):
        dfg = DFG.from_program(gemm)
        paths = [p for p in genpaths(dfg, "S") if p.source in ("A", "B", "S")][:3]
        domain = dfg.program.statement("S").domain
        betas = coeff_interf(dfg, paths, domain)
        assert all(beta == 1 for beta in betas)


class TestExample1:
    def test_partition_bound_is_mn_over_s(self, example1):
        result = Analyzer(AnalysisConfig(max_depth=0)).analyze(example1)
        m, n, s = sym("M"), sym("N"), S_SYMBOL
        assert leading_ratio(result.asymptotic, m * n / s, ["M", "N"]) == 1

    def test_bound_below_simulated_loads(self, example1):
        result = Analyzer(AnalysisConfig(max_depth=0)).analyze(example1)
        params = {"M": 8, "N": 10}
        cdag = CDAG.expand(example1, params)
        for capacity in (3, 5, 9):
            simulated = simulate_schedule(
                cdag, lexicographic_schedule(cdag), capacity, policy="opt"
            )
            bound = result.evaluate({**params, "S": capacity})
            assert bound <= simulated.loads + 1e-9


class TestGemm:
    def test_oi_upper_is_sqrt_s(self, gemm):
        result = Analyzer(AnalysisConfig(max_depth=0)).analyze(gemm)
        assert sympy.simplify(result.oi_upper_bound() - sympy.sqrt(S_SYMBOL)) == 0

    def test_asymptotic_matches_2n3_over_sqrt_s(self, gemm):
        result = Analyzer(AnalysisConfig(max_depth=0)).analyze(gemm)
        ni, nj, nk = sym("Ni"), sym("Nj"), sym("Nk")
        expected = 2 * ni * nj * nk / sympy.sqrt(S_SYMBOL)
        assert sympy.simplify(result.asymptotic / expected) == 1

    def test_bound_below_simulated_loads(self, gemm):
        result = Analyzer(AnalysisConfig(max_depth=0)).analyze(gemm)
        params = {"Ni": 6, "Nj": 6, "Nk": 6}
        cdag = CDAG.expand(gemm, params)
        for capacity in (8, 16):
            simulated = simulate_schedule(
                cdag, lexicographic_schedule(cdag), capacity, policy="opt"
            )
            bound = result.evaluate({**params, "S": capacity})
            assert bound <= simulated.loads + 1e-9


class TestExample2Wavefront:
    def test_wavefront_bound_detected(self, example2):
        dfg = DFG.from_program(example2)
        bound = sub_param_q_by_wavefront(dfg, "S2", depth=1)
        assert bound is not None
        m, n, s = sym("M"), sym("N"), S_SYMBOL
        # Paper: Q >= (M - 1)(N - S).
        difference = sympy.expand(bound.smooth - (m - 1) * (n - s))
        assert difference == 0

    def test_full_derivation_dominated_by_mn(self, example2):
        result = Analyzer(AnalysisConfig(max_depth=1)).analyze(example2)
        m, n = sym("M"), sym("N")
        assert leading_ratio(result.asymptotic, m * n, ["M", "N"]) == 1

    def test_bound_below_simulated_loads(self, example2):
        result = Analyzer(AnalysisConfig(max_depth=1)).analyze(example2)
        params = {"M": 6, "N": 8}
        cdag = CDAG.expand(example2, params)
        simulated = simulate_schedule(
            cdag, lexicographic_schedule(cdag), capacity=4, policy="opt"
        )
        assert result.evaluate({**params, "S": 4}) <= simulated.loads + 1e-9
