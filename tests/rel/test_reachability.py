"""Differential tests: symbolic reachability vs. brute-force CDAG search.

The certificate property under test is *soundness*: whenever the symbolic
validator certifies the wavefront hypothesis (``holds=True``), the
brute-force check on a concretely expanded CDAG must agree at every
instance.  The converse cannot hold in general — the symbolic answer
quantifies over all parameter values while the concrete oracle looks at one
small instance — and ``adi`` is the canonical witness: its concrete check
*passes* at the historical default instance 4 (the inner slices are 2x2, so
the +-1 neighbourhood trivially spans them) but fails from instance 5 on,
while the symbolic validator correctly rejects for all sizes.
"""

from __future__ import annotations

import pytest

from repro.core.wavefront import (
    _validate_reachability_concrete,
    _validate_reachability_symbolic,
)
from repro.ir import DFG, ProgramBuilder
from repro.polybench import get_kernel


def example2_program():
    return (
        ProgramBuilder("example2", ["M", "N"])
        .add_array("[N] -> { A[i] : 0 <= i < N }")
        .add_statement("[M, N] -> { S1[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_statement("[M, N] -> { S2[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_dependence("[M, N] -> { S1[t, i] -> S1[t, i - 1] : 0 <= t < M and 1 <= i < N }")
        .add_dependence("[M, N] -> { S1[t, i] -> S2[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S1[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> S1[t, N - 1] : 0 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> S2[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .build()
    )


class TestPaperExamples:
    def test_example2_certifies_exactly(self):
        dfg = DFG.from_program(example2_program())
        for statement in ("S1", "S2"):
            result = _validate_reachability_symbolic(dfg, statement, 1)
            assert result.holds and result.exact
            assert _validate_reachability_concrete(dfg, statement, 1, {"M": 4, "N": 4})

    def test_durbin_certifies_exactly(self):
        dfg = DFG.from_program(get_kernel("durbin").program)
        result = _validate_reachability_symbolic(dfg, "Y", 1)
        assert result.holds and result.exact
        assert _validate_reachability_concrete(dfg, "Y", 1, {"N": 4})

    @pytest.mark.slow
    def test_durbin_sum_statement_also_certifies(self):
        dfg = DFG.from_program(get_kernel("durbin").program)
        result = _validate_reachability_symbolic(dfg, "SUM", 1)
        assert result.holds and result.exact

    @pytest.mark.slow
    def test_adi_rejects_where_the_concrete_oracle_is_instance_blind(self):
        """adi's hypothesis is false for N >= 5, yet the concrete check at
        the historical default instance 4 passes — the symbolic validator
        must reject (for all N), retiring exactly this blind spot."""
        dfg = DFG.from_program(get_kernel("adi").program)
        for statement in ("V", "U"):
            assert not _validate_reachability_symbolic(dfg, statement, 1).holds
        assert _validate_reachability_concrete(dfg, "V", 1, {"T": 3, "N": 4})
        assert not _validate_reachability_concrete(dfg, "V", 1, {"T": 3, "N": 6})


# -- random DFG soundness sweep ---------------------------------------------

# The seeded two-statement generator that historically lived here is now the
# "small" profile of the first-class fuzzer — same seeds, same programs
# (tests/fuzz/test_generator.py locks the fingerprints), one source of truth.
from repro.fuzz.generator import random_program


def assert_symbolic_sound_against_concrete(seed: int) -> None:
    program = random_program(seed)
    dfg = DFG.from_program(program)
    for statement in ("P", "Q"):
        symbolic = _validate_reachability_symbolic(dfg, statement, 1)
        if symbolic.holds:
            # A certificate quantifies over every instance: the brute-force
            # CDAG check must agree wherever it is applicable.
            for instance in ({"M": 3, "N": 3}, {"M": 4, "N": 5}):
                assert _validate_reachability_concrete(dfg, statement, 1, instance), (
                    f"seed {seed}: symbolic certificate for {statement} not "
                    f"confirmed by the concrete CDAG at {instance}"
                )


@pytest.mark.parametrize("seed", [2, 3])
def test_random_dfg_soundness_fast(seed):
    assert_symbolic_sound_against_concrete(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, *range(4, 40)])
def test_random_dfg_soundness_sweep(seed):
    assert_symbolic_sound_against_concrete(seed)
