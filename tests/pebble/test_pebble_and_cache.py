"""Tests for the red-white pebble game, schedules and cache simulators."""

import pytest

from repro.ir import CDAG, ProgramBuilder
from repro.pebble import (
    PebbleGameError,
    lexicographic_schedule,
    simulate_schedule,
    tiled_schedule,
    topological_schedule,
)

from pebble_game import GameState, Move


def chain_program(n=5):
    """A simple chain: S[i] depends on S[i-1], S[0] reads the input a[0]."""
    return (
        ProgramBuilder("chain", ["N"])
        .add_array("[N] -> { a[i] : 0 <= i < 1 }")
        .add_statement("[N] -> { S[i] : 0 <= i < N }")
        .add_dependence("[N] -> { S[i] -> S[i - 1] : 1 <= i < N }")
        .add_dependence("[N] -> { S[i] -> a[i] : i = 0 }")
        .build()
    )


def gemm_program():
    return (
        ProgramBuilder("gemm", ["Ni", "Nj", "Nk"])
        .add_array("[Ni, Nk] -> { A[i, k] : 0 <= i < Ni and 0 <= k < Nk }")
        .add_array("[Nk, Nj] -> { B[k, j] : 0 <= k < Nk and 0 <= j < Nj }")
        .add_statement(
            "[Ni, Nj, Nk] -> { S[i, j, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }",
            flops=2,
        )
        .add_dependence(
            "[Ni, Nj, Nk] -> { S[i, j, k] -> S[i, j, k - 1] : 0 <= i < Ni and 0 <= j < Nj and 1 <= k < Nk }"
        )
        .add_dependence(
            "[Ni, Nj, Nk] -> { S[i, j, k] -> A[i, k] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }"
        )
        .add_dependence(
            "[Ni, Nj, Nk] -> { S[i, j, k] -> B[k, j] : 0 <= i < Ni and 0 <= j < Nj and 0 <= k < Nk }"
        )
        .build()
    )


class TestGameRules:
    def test_compute_requires_operands_in_fast_memory(self):
        cdag = CDAG.expand(chain_program(), {"N": 3})
        state = GameState(cdag, capacity=2)
        with pytest.raises(PebbleGameError):
            state.apply(Move("compute", ("S", (1,))))

    def test_no_recomputation(self):
        cdag = CDAG.expand(chain_program(), {"N": 2})
        state = GameState(cdag, capacity=4)
        state.apply(Move("load", ("a", (0,))))
        state.apply(Move("compute", ("S", (0,))))
        with pytest.raises(PebbleGameError):
            state.apply(Move("compute", ("S", (0,))))

    def test_capacity_enforced(self):
        cdag = CDAG.expand(chain_program(), {"N": 5})
        state = GameState(cdag, capacity=1)
        state.apply(Move("load", ("a", (0,))))
        with pytest.raises(PebbleGameError):
            state.apply(Move("compute", ("S", (0,))))

    def test_load_requires_computed_value(self):
        cdag = CDAG.expand(chain_program(), {"N": 3})
        state = GameState(cdag, capacity=3)
        with pytest.raises(PebbleGameError):
            state.apply(Move("load", ("S", (2,))))

    def test_evict_frees_space(self):
        cdag = CDAG.expand(chain_program(), {"N": 3})
        state = GameState(cdag, capacity=2)
        state.apply(Move("load", ("a", (0,))))
        state.apply(Move("compute", ("S", (0,))))
        state.apply(Move("evict", ("a", (0,))))
        state.apply(Move("compute", ("S", (1,))))
        assert state.loads == 1


class TestSchedules:
    def test_lexicographic_schedule_is_valid(self):
        cdag = CDAG.expand(gemm_program(), {"Ni": 3, "Nj": 3, "Nk": 3})
        schedule = lexicographic_schedule(cdag)
        assert cdag.is_valid_schedule(schedule)

    def test_tiled_schedule_is_valid(self):
        cdag = CDAG.expand(gemm_program(), {"Ni": 4, "Nj": 4, "Nk": 4})
        schedule = tiled_schedule(cdag, {"S": (2, 2, 2)})
        assert cdag.is_valid_schedule(schedule)

    def test_topological_schedule_is_valid(self):
        cdag = CDAG.expand(chain_program(), {"N": 6})
        schedule = topological_schedule(cdag)
        assert cdag.is_valid_schedule(schedule)


class TestCacheSimulation:
    def test_chain_needs_one_load(self):
        cdag = CDAG.expand(chain_program(), {"N": 8})
        schedule = topological_schedule(cdag)
        result = simulate_schedule(cdag, schedule, capacity=2)
        assert result.loads == 1  # only the initial input load
        assert result.operations == 8

    def test_opt_never_worse_than_lru(self):
        cdag = CDAG.expand(gemm_program(), {"Ni": 4, "Nj": 4, "Nk": 4})
        schedule = lexicographic_schedule(cdag)
        lru = simulate_schedule(cdag, schedule, capacity=6, policy="lru")
        opt = simulate_schedule(cdag, schedule, capacity=6, policy="opt")
        assert opt.loads <= lru.loads

    def test_tiling_reduces_loads_for_gemm(self):
        cdag = CDAG.expand(gemm_program(), {"Ni": 6, "Nj": 6, "Nk": 6})
        untiled = simulate_schedule(cdag, lexicographic_schedule(cdag), capacity=10)
        tiled = simulate_schedule(cdag, tiled_schedule(cdag, {"S": (2, 2, 6)}), capacity=10)
        assert tiled.loads <= untiled.loads

    def test_larger_cache_never_hurts(self):
        cdag = CDAG.expand(gemm_program(), {"Ni": 4, "Nj": 4, "Nk": 4})
        schedule = lexicographic_schedule(cdag)
        small = simulate_schedule(cdag, schedule, capacity=5)
        large = simulate_schedule(cdag, schedule, capacity=30)
        assert large.loads <= small.loads

    def test_invalid_schedule_rejected(self):
        cdag = CDAG.expand(chain_program(), {"N": 4})
        schedule = list(reversed(topological_schedule(cdag)))
        with pytest.raises(ValueError):
            simulate_schedule(cdag, schedule, capacity=4)

    def test_operational_intensity(self):
        cdag = CDAG.expand(chain_program(), {"N": 8})
        result = simulate_schedule(cdag, topological_schedule(cdag), capacity=2)
        assert result.operational_intensity() == 8.0
