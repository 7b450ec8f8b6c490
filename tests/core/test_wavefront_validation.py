"""The wavefront gate, the symbolic validator and the _omega_range fix."""

from __future__ import annotations

import pytest

from repro.analysis.plan import dfg_for
from repro.core.paths import CHAIN
from repro.core.wavefront import (
    _omega_range,
    _validate_reachability_concrete,
    _validate_reachability_symbolic,
    structural_chain,
    sub_param_q_by_wavefront,
)
from repro.fuzz.generator import random_program
from repro.ir import DFG, expand_count, reset_expand_count
from repro.rel import ReachabilityResult
from repro.sets import LinExpr, parse_set


class TestOmegaRange:
    def test_simple_box_bounds(self):
        domain = parse_set("[M] -> { S[t, i] : 0 <= t < M and 0 <= i < 10 }")
        bounds = _omega_range(domain, "t")
        assert bounds == (LinExpr.constant(0), LinExpr({"M": 1}, -1))

    def test_tightest_lower_bound_wins(self):
        # Two lower bounds 0 <= t and 5 <= t: the old code kept whichever
        # constraint came first; the range must start at 5.
        domain = parse_set("[M] -> { S[t] : 0 <= t and 5 <= t and t < M }")
        bounds = _omega_range(domain, "t")
        assert bounds == (LinExpr.constant(5), LinExpr({"M": 1}, -1))

    def test_tightest_upper_bound_wins(self):
        domain = parse_set("[M] -> { S[t] : 0 <= t and t < M and t <= 7 }")
        bounds = _omega_range(domain, "t")
        # M - 1 vs 7 are not comparable symbolically: must give up rather
        # than silently pick one.
        assert bounds is None

    def test_comparable_upper_bounds(self):
        domain = parse_set("[M] -> { S[t] : 0 <= t and t < M and t < M - 2 }")
        bounds = _omega_range(domain, "t")
        assert bounds == (LinExpr.constant(0), LinExpr({"M": 1}, -3))

    def test_incomparable_lower_bounds_give_up(self):
        domain = parse_set("[M, K] -> { S[t] : 0 <= t and K <= t and t < M }")
        assert _omega_range(domain, "t") is None

    def test_cross_piece_disagreement_returns_none(self):
        # A union whose pieces disagree on the slice range has no single
        # well-defined summation range.
        piece1 = parse_set("[M] -> { S[t] : 0 <= t < M }")
        piece2 = parse_set("[M] -> { S[t] : 1 <= t < M }")
        union = piece1.union(piece2)
        assert _omega_range(union, "t") is None

    def test_agreeing_pieces_are_accepted(self):
        piece = parse_set("[M] -> { S[t] : 0 <= t < M }")
        union = piece.union(piece)
        assert _omega_range(union, "t") == (
            LinExpr.constant(0),
            LinExpr({"M": 1}, -1),
        )

    def test_non_unit_coefficient_gives_up(self):
        domain = parse_set("[M] -> { S[t] : 2*t >= M and t < M }")
        assert _omega_range(domain, "t") is None


class TestStructuralChain:
    """The gate shared by the derivation and the fuzz ``backends`` oracle."""

    def test_example2_s2_has_chain_and_broadcast(self, example2):
        chain = structural_chain(DFG.from_program(example2), "S2", 1)
        assert chain is not None and chain.kind == CHAIN

    def test_chain_must_step_the_sliced_dimension(self, example2):
        # S1's self-dependence steps i, not the sliced t.
        assert structural_chain(DFG.from_program(example2), "S1", 1) is None

    @pytest.mark.parametrize("depth", [0, 2])
    def test_depth_must_leave_an_inner_dimension(self, example2, depth):
        assert structural_chain(DFG.from_program(example2), "S2", depth) is None

    def test_broadcast_must_come_from_a_statement(self, example1):
        # Fig. 1 has the unit chain, but its slice-wide read is of an array.
        dfg = DFG.from_program(example1)
        assert structural_chain(dfg, "S", 1) is None
        assert sub_param_q_by_wavefront(dfg, "S", 1) is None


class TestSymbolicCertificate:
    """The symbolic check is the only validator; these tests pin it to the
    concrete graph search it replaced (kept as a reference in src)."""

    @pytest.mark.parametrize("statement", ["S1", "S2"])
    def test_certificate_agrees_with_concrete_on_example2(self, example2, statement):
        dfg = DFG.from_program(example2)
        certificate = _validate_reachability_symbolic(dfg, statement, 1)
        assert certificate.holds and certificate.exact
        for instance in ({"M": 4, "N": 4}, {"M": 3, "N": 6}):
            assert _validate_reachability_concrete(dfg, statement, 1, instance)

    def test_symbolic_validation_expands_no_cdag(self, example2):
        dfg = DFG.from_program(example2)
        reset_expand_count()
        bound = sub_param_q_by_wavefront(dfg, "S2", depth=1)
        assert bound is not None
        assert expand_count() == 0, "symbolic validation must not expand a CDAG"

    def test_symbolic_bound_records_exact_closure(self, example2):
        dfg = DFG.from_program(example2)
        bound = sub_param_q_by_wavefront(dfg, "S2", depth=1)
        assert "symbolic validation (exact closure)" in bound.notes


class TestWideFuzzVerdicts:
    """The three costliest symbolic checks of the wide fuzz campaign.

    They dominate the campaign's run time, so they are where a faster
    constraint arithmetic would first move a verdict; the verdict and the
    pivot count of each are pinned.
    """

    @pytest.mark.parametrize(
        "seed, statement, pivots", [(1, "S2", 4), (2, "S1", 4), (5, "S0", 3)]
    )
    def test_verdict_is_unchanged(self, seed, statement, pivots):
        dfg = dfg_for(random_program(seed, "wide"))
        result = _validate_reachability_symbolic(dfg, statement, 1)
        assert result == ReachabilityResult(holds=False, exact=False, pivots=pivots)
