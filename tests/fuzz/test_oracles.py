"""Oracle plumbing: every built-in differential runs green on clean cases.

The fast tier runs every oracle on 5 seeds × 2 profiles; the wide
sweep (more seeds, the third profile) rides behind the ``slow`` marker like
the historical reachability sweep.  All oracles of one case run inside one
test so they share the per-process DFG/reachability caches — the same
batching the campaign runner uses.
"""

from __future__ import annotations

import pytest

from repro.analysis.plan import dfg_for
from repro.core.wavefront import (
    _validate_reachability_concrete,
    _validate_reachability_symbolic,
    sub_param_q_by_wavefront,
)
from repro.fuzz.generator import random_program
from repro.fuzz.oracles import (
    ORACLES,
    OracleContext,
    OracleVerdict,
    oracle_names,
    run_oracle,
)
from repro.ir import ProgramBuilder
from repro.rel import ReachabilityResult

BUILTIN_ORACLES = ("backends", "counting", "executors", "sandwich", "store")

FAST_CASES = [("small", seed) for seed in range(5)] + [
    ("deep", seed) for seed in range(5)
]
SLOW_CASES = (
    [("small", seed) for seed in range(5, 25)]
    + [("wide", seed) for seed in range(10)]
    + [("deep", seed) for seed in range(5, 15)]
)


def assert_all_oracles_green(profile: str, seed: int) -> None:
    program = random_program(seed, profile)
    ctx = OracleContext.for_case(seed, profile)
    failures = []
    for name in oracle_names():
        verdict = run_oracle(name, program, ctx)
        assert isinstance(verdict, OracleVerdict) and verdict.oracle == name
        if not verdict.ok:
            failures.append((name, verdict.details, verdict.divergence))
    assert not failures, f"{profile}:{seed} diverged: {failures}"


class TestRegistry:
    def test_builtins_registered(self):
        assert tuple(ORACLES) == BUILTIN_ORACLES
        assert oracle_names() == BUILTIN_ORACLES

    def test_unknown_oracle_is_not_run(self):
        with pytest.raises(KeyError, match="no-such-oracle"):
            run_oracle(
                "no-such-oracle", random_program(0, "small"), OracleContext.for_case(0, "small")
            )

    def test_register_and_crash_wrapping(self, monkeypatch):
        def crasher(program, ctx):
            raise RuntimeError("deliberate")

        monkeypatch.setitem(ORACLES, "_test_crasher", crasher)
        verdict = run_oracle(
            "_test_crasher",
            random_program(0, "small"),
            OracleContext.for_case(0, "small"),
        )
        # A crash of the system under test is a *finding*, not a campaign
        # abort: it must come back as a failing verdict.
        assert not verdict.ok
        assert verdict.divergence["kind"] == "crash"
        assert verdict.divergence["error"] == "RuntimeError"


@pytest.mark.parametrize("profile,seed", FAST_CASES)
def test_all_oracles_green_fast(profile, seed):
    assert_all_oracles_green(profile, seed)


@pytest.mark.slow
@pytest.mark.parametrize("profile,seed", SLOW_CASES)
def test_all_oracles_green_sweep(profile, seed):
    assert_all_oracles_green(profile, seed)


class TestVerdictShape:
    def test_verdicts_are_json_serializable(self):
        import json

        program = random_program(1, "small")
        ctx = OracleContext.for_case(1, "small")
        for name in oracle_names():
            verdict = run_oracle(name, program, ctx)
            doc = json.loads(json.dumps(verdict.to_dict()))
            assert doc["oracle"] == name and doc["checks"] >= 0

    def test_counting_oracle_counts_checks(self):
        verdict = run_oracle(
            "counting", random_program(2, "small"), OracleContext.for_case(2, "small")
        )
        # 2 statements + input-size + total-flops at each of 2 instances.
        assert verdict.checks == 8


def first_column_broadcast_program():
    """Example 2 with the broadcast read from ``S1[t, 0]`` instead of
    ``S1[t, N-1]``: the chain + broadcast pattern is present, but ``S1[t, 0]``
    only sees ``S2[t-1, 0]``, so Cor. 6.3's complete reachability is false."""
    return (
        ProgramBuilder("first-column-broadcast", ["M", "N"])
        .add_array("[N] -> { A[i] : 0 <= i < N }")
        .add_statement("[M, N] -> { S1[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_statement("[M, N] -> { S2[t, i] : 0 <= t < M and 0 <= i < N }", flops=1)
        .add_dependence("[M, N] -> { S1[t, i] -> S1[t, i - 1] : 0 <= t < M and 1 <= i < N }")
        .add_dependence("[M, N] -> { S1[t, i] -> S2[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S1[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> S1[t, 0] : 0 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> S2[t - 1, i] : 1 <= t < M and 0 <= i < N }")
        .add_dependence("[M, N] -> { S2[t, i] -> A[i] : t = 0 and 0 <= i < N }")
        .build()
    )


class TestBackendsOracle:
    """The ``backends`` oracle (named for perf traces that key on it) checks
    symbolic reachability certificates against concrete graph search."""

    @pytest.fixture
    def dfg(self):
        dfg = dfg_for(first_column_broadcast_program())
        # The verdict memo lives on the shared per-process DFG: clear it on
        # both sides so a planted answer never leaks into another test.
        dfg.__dict__.pop("_reachability_cache", None)
        yield dfg
        dfg.__dict__.pop("_reachability_cache", None)

    def test_rejected_hypothesis_passes(self, dfg):
        # Symbolic and concrete agree the hypothesis is false, so no
        # wavefront bound is admitted and the oracle has nothing to confirm.
        assert not _validate_reachability_symbolic(dfg, "S2", 1).holds
        assert not _validate_reachability_concrete(dfg, "S2", 1, {"M": 3, "N": 4})
        assert sub_param_q_by_wavefront(dfg, "S2", 1) is None
        verdict = run_oracle("backends", dfg.program, OracleContext.for_case(0, "small"))
        assert verdict.ok and verdict.checks == 1

    def test_planted_false_accept_is_caught(self, dfg, monkeypatch):
        monkeypatch.setattr(
            "repro.core.wavefront.check_universal_reachability",
            lambda *args, **kwargs: ReachabilityResult(holds=True, exact=True, pivots=0),
        )
        verdict = run_oracle("backends", dfg.program, OracleContext.for_case(0, "small"))
        assert not verdict.ok
        assert verdict.divergence["kind"] == "false-accept"
        assert verdict.divergence["statement"] == "S2"
