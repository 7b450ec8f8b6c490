"""Oracle plumbing: every built-in differential runs green on clean cases.

The fast tier runs all registered oracles on 5 seeds × 2 profiles; the wide
sweep (more seeds, the third profile) rides behind the ``slow`` marker like
the historical reachability sweep.  All oracles of one case run inside one
test so they share the per-process DFG/reachability caches — the same
batching the campaign runner uses.
"""

from __future__ import annotations

import pytest

from repro.fuzz.generator import random_program
from repro.fuzz.oracles import (
    OracleContext,
    OracleVerdict,
    get_oracle,
    oracle_names,
    register_oracle,
    run_oracle,
)
from repro.fuzz.oracles import _ORACLES

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
        assert set(BUILTIN_ORACLES) <= set(oracle_names())

    def test_unknown_oracle_raises_with_listing(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            get_oracle("no-such-oracle")

    def test_register_and_crash_wrapping(self):
        @register_oracle("_test_crasher")
        def crasher(program, ctx):
            raise RuntimeError("deliberate")

        try:
            verdict = run_oracle(
                "_test_crasher",
                random_program(0, "small"),
                OracleContext.for_case(0, "small"),
            )
            # A crash of the system under test is a *finding*, not a
            # campaign abort: it must come back as a failing verdict.
            assert not verdict.ok
            assert verdict.divergence["kind"] == "crash"
            assert verdict.divergence["error"] == "RuntimeError"
        finally:
            _ORACLES.pop("_test_crasher", None)


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
