"""The tiling search engine: shapes, keys, memoisation, fallback skipping."""

from __future__ import annotations

import warnings

import pytest

from repro.analysis import BoundStore
from repro.ir import CDAG, ProgramBuilder, expand_count, reset_expand_count
from repro.polybench import get_kernel
from repro.upper import (
    TileSimulation,
    UpperBoundResult,
    candidate_shapes,
    reset_simulation_count,
    search_key,
    search_upper_bounds,
    simulation_count,
    simulation_key,
    tile_sizes_for,
)
from repro.upper import search as search_module
from repro.upper.result import select_best

GEMM_INSTANCE = {"Ni": 6, "Nj": 6, "Nk": 6}


def antidiagonal_program():
    """S[t, i] reads S[t-1, i+1]: every tiling with t-extent > 1 is illegal."""
    return (
        ProgramBuilder("antidiag", ["T", "N"])
        .add_array("[T, N] -> { a[i] : 0 <= i < 1 }")
        .add_statement("[T, N] -> { S[t, i] : 0 <= t < T and 0 <= i < N }", flops=1)
        .add_dependence(
            "[T, N] -> { S[t, i] -> S[t - 1, i + 1] : 1 <= t < T and 0 <= i < N - 1 }"
        )
        .add_dependence("[T, N] -> { S[t, i] -> a[i] : t = 0 and i = 0 }")
        .build()
    )


class TestCandidateShapes:
    def test_powers_of_two_plus_extent(self):
        shapes = candidate_shapes((6,), max_candidates=64)
        assert shapes == [(1,), (2,), (4,), (6,)]

    def test_baseline_always_present(self):
        shapes = candidate_shapes((8, 8, 8), max_candidates=5)
        assert (1, 1, 1) in shapes
        assert len(shapes) <= 6  # cap + possibly re-inserted baseline

    def test_cap_is_deterministic(self):
        first = candidate_shapes((16, 16), max_candidates=7)
        second = candidate_shapes((16, 16), max_candidates=7)
        assert first == second

    def test_full_grid_size(self):
        # extents (4, 4): edges {1, 2, 4} per dim -> 9 shapes.
        assert len(candidate_shapes((4, 4), max_candidates=64)) == 9


class TestTileSizesFor:
    def test_innermost_alignment_for_shallow_statements(self):
        program = (
            ProgramBuilder("mixed", ["N"])
            .add_array("[N] -> { a[i] : 0 <= i < N }")
            .add_statement("[N] -> { D[i, j] : 0 <= i < N and 0 <= j < N }")
            .add_statement("[N] -> { V[i] : 0 <= i < N }")
            .add_dependence("[N] -> { D[i, j] -> a[i] : 0 <= i < N and 0 <= j < N }")
            .add_dependence("[N] -> { V[i] -> a[i] : 0 <= i < N }")
            .build()
        )
        sizes = tile_sizes_for(program, (4, 2))
        assert sizes["D"] == (4, 2)
        assert sizes["V"] == (2,)  # shares the innermost edge

    def test_deeper_statement_pads_with_ones(self):
        program = (
            ProgramBuilder("deep", ["N"])
            .add_array("[N] -> { a[i] : 0 <= i < N }")
            .add_statement("[N] -> { D[i, j] : 0 <= i < N and 0 <= j < N }")
            .add_dependence("[N] -> { D[i, j] -> a[i] : 0 <= i < N and 0 <= j < N }")
            .build()
        )
        assert tile_sizes_for(program, (3,))["D"] == (1, 3)


class TestSimulationKey:
    def test_key_shape_and_determinism(self):
        key = simulation_key("f" * 64, {"N": 8}, 64, (2, 2), "lru")
        assert key.endswith("-sim")
        assert len(key) == 64 + 4
        assert key == simulation_key("f" * 64, {"N": 8}, 64, (2, 2), "lru")

    def test_key_sensitive_to_every_component(self):
        base = simulation_key("f" * 64, {"N": 8}, 64, (2, 2), "lru")
        assert simulation_key("e" * 64, {"N": 8}, 64, (2, 2), "lru") != base
        assert simulation_key("f" * 64, {"N": 9}, 64, (2, 2), "lru") != base
        assert simulation_key("f" * 64, {"N": 8}, 32, (2, 2), "lru") != base
        assert simulation_key("f" * 64, {"N": 8}, 64, (2, 4), "lru") != base
        assert simulation_key("f" * 64, {"N": 8}, 64, (2, 2), "opt") != base


class TestSearchKey:
    def test_key_shape_and_determinism(self):
        key = search_key("f" * 64, {"N": 8}, 64, 16)
        assert key.endswith("-search")
        assert len(key) == 64 + len("-search")
        assert key == search_key("f" * 64, {"N": 8}, 64, 16)

    def test_key_sensitive_to_every_component(self, monkeypatch):
        base = search_key("f" * 64, {"N": 8}, 64, 16)
        assert search_key("e" * 64, {"N": 8}, 64, 16) != base
        assert search_key("f" * 64, {"N": 9}, 64, 16) != base
        assert search_key("f" * 64, {"N": 8}, 32, 16) != base
        assert search_key("f" * 64, {"N": 8}, 64, 8) != base
        monkeypatch.setattr(search_module, "SEARCH_VERSION", search_module.SEARCH_VERSION + 1)
        assert search_key("f" * 64, {"N": 8}, 64, 16) != base


class TestSearch:
    def test_gemm_search_finds_a_sound_upper_bound(self):
        spec = get_kernel("gemm")
        result = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16, max_candidates=16
        )[0]
        assert result is not None
        assert result.best is not None and result.best.simulated
        assert not result.best.used_fallback
        assert result.best.loads > 0
        # The winner is the minimum over every simulated record.
        simulated = [sim for sim in result.simulations if sim.simulated]
        assert result.best.loads == min(sim.loads for sim in simulated)
        # gemm's flops ride along for the OI computation (2 flops per MAC).
        assert result.best.flops == 2 * result.best.operations

    def test_baseline_shape_always_among_candidates(self):
        spec = get_kernel("gemm")
        result = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16, max_candidates=8
        )[0]
        assert any(all(e == 1 for e in sim.shape) for sim in result.simulations)

    def test_illegal_tilings_skipped_but_baseline_simulated(self):
        program = antidiagonal_program()
        result = search_upper_bounds(
            [(program, {"T": 6, "N": 6})], cache_words=16, max_candidates=32
        )[0]
        skipped = [s for s in result.simulations if not s.simulated and s.used_fallback]
        assert skipped, "t-tilings of the anti-diagonal program must be skipped"
        for sim in skipped:
            assert sim.loads == 0  # never scored
        assert result.best is not None and result.best.simulated
        assert result.skipped_fallback == len(skipped)

    def test_search_counts_simulations_and_store_makes_rerun_free(self, tmp_path):
        spec = get_kernel("gemm")
        store = BoundStore(tmp_path / "store")
        reset_simulation_count()
        cold = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16,
            max_candidates=8, store=store,
        )[0]
        cold_count = simulation_count()
        assert cold_count == len(cold.simulations)

        reset_simulation_count()
        warm = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16,
            max_candidates=8, store=store,
        )[0]
        assert simulation_count() == 0
        assert warm.to_dict() == cold.to_dict()

    def test_batch_search_returns_job_order(self):
        gemm = get_kernel("gemm")
        atax = get_kernel("atax")
        results = search_upper_bounds(
            [(gemm.program, GEMM_INSTANCE), (atax.program, {"M": 6, "N": 6})],
            cache_words=16,
            max_candidates=8,
        )
        assert [r.program for r in results] == ["gemm", "atax"]
        assert all(r.best is not None for r in results)

    def test_thread_executor_matches_serial_byte_for_byte(self):
        spec = get_kernel("gemm")
        serial = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16,
            max_candidates=8, executor="serial",
        )[0]
        threaded = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16,
            max_candidates=8, executor="thread", n_jobs=4,
        )[0]
        assert serial.to_dict() == threaded.to_dict()

    def test_thread_search_leaves_warning_filters_unchanged(self):
        # The warning filter list is process-global: a worker that swaps it
        # (warnings.catch_warnings) races its siblings and can leave an
        # "ignore" entry behind after the search returns.
        spec = get_kernel("jacobi-2d")
        before = list(warnings.filters)
        for _ in range(3):
            search_upper_bounds(
                [(spec.program, {"T": 4, "N": 8})], cache_words=16,
                max_candidates=8, executor="thread", n_jobs=4,
            )
            assert list(warnings.filters) == before

    def test_unexpandable_instance_yields_none(self):
        spec = get_kernel("gemm")
        results = search_upper_bounds(
            [(spec.program, {"Ni": 0, "Nj": 0, "Nk": 0})], cache_words=16
        )
        assert results == [None]


def _outcome_entries(store: BoundStore) -> list:
    return sorted(store.objects_dir.glob("*/*-search.json"))


class TestSearchOutcomeEntries:
    """A finished search is one store entry: a warm rerun reads it before
    any CDAG is expanded, while the per-tile cells stay for other budgets."""

    JOBS = [
        (get_kernel("gemm").program, GEMM_INSTANCE),
        (get_kernel("atax").program, {"M": 6, "N": 6}),
    ]
    OPTIONS = dict(cache_words=16, max_candidates=8)

    def test_warm_search_expands_nothing_and_reads_one_entry_per_job(self, tmp_path):
        cold = search_upper_bounds(self.JOBS, store=BoundStore(tmp_path), **self.OPTIONS)
        assert len(_outcome_entries(BoundStore(tmp_path))) == len(self.JOBS)

        search_module._CDAGS._entries.clear()
        store = BoundStore(tmp_path)
        reset_expand_count()
        reset_simulation_count()
        warm = search_upper_bounds(self.JOBS, store=store, **self.OPTIONS)
        assert expand_count() == 0
        assert simulation_count() == 0
        assert (store.hits, store.misses) == (len(self.JOBS), 0)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_store_without_outcome_entries_answers_from_its_cells(self, tmp_path):
        # A store filled before outcome entries existed holds only the cells.
        cold = search_upper_bounds(self.JOBS, store=BoundStore(tmp_path), **self.OPTIONS)
        for path in _outcome_entries(BoundStore(tmp_path)):
            path.unlink()

        store = BoundStore(tmp_path)
        reset_simulation_count()
        warm = search_upper_bounds(self.JOBS, store=store, **self.OPTIONS)
        assert simulation_count() == 0
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        assert store.writes == len(self.JOBS)
        assert len(_outcome_entries(store)) == len(self.JOBS)

    def test_other_budget_has_its_own_outcome_but_reuses_the_cells(self, tmp_path):
        store = BoundStore(tmp_path)
        job = self.JOBS[:1]
        (narrow,) = search_upper_bounds(job, store=store, cache_words=16, max_candidates=8)
        first = _outcome_entries(store)

        reset_simulation_count()
        (wide,) = search_upper_bounds(job, store=store, cache_words=16, max_candidates=16)
        assert len(_outcome_entries(store)) == len(first) + 1
        shared = {(s.shape, s.policy) for s in narrow.simulations} & {
            (s.shape, s.policy) for s in wide.simulations
        }
        assert shared
        # Every cell the narrow search simulated is read back, not re-run.
        assert simulation_count() == len(wide.simulations) - len(shared)

    def test_unexpandable_instance_yields_none_with_a_store(self, tmp_path):
        spec = get_kernel("gemm")
        store = BoundStore(tmp_path)
        for instance in ({"Ni": 0, "Nj": 0, "Nk": 0}, {"Ni": 4}):
            assert search_upper_bounds(
                [(spec.program, instance)], store=store, **self.OPTIONS
            ) == [None]
        assert _outcome_entries(store) == []


class TestResultSerialization:
    def test_tile_simulation_round_trip(self):
        sim = TileSimulation(
            shape=(4, 2, 1), policy="opt", capacity=64, simulated=True,
            used_fallback=False, loads=217, evictions=665,
            operations=512, flops=1024,
        )
        assert TileSimulation.from_dict(sim.to_dict()) == sim
        assert sim.achieved_oi() == pytest.approx(1024 / 217)

    def test_upper_bound_result_round_trip(self):
        spec = get_kernel("gemm")
        result = search_upper_bounds(
            [(spec.program, GEMM_INSTANCE)], cache_words=16, max_candidates=8
        )[0]
        reloaded = UpperBoundResult.from_dict(result.to_dict())
        assert reloaded.to_dict() == result.to_dict()
        assert reloaded.best == result.best
        assert reloaded.candidates == result.candidates

    def test_skipped_record_oi_is_zero(self):
        sim = TileSimulation(shape=(2, 2), policy="lru", capacity=8, simulated=False)
        assert sim.achieved_oi() == 0.0

    def test_select_best_prefers_fewest_loads(self):
        a = TileSimulation(shape=(2,), policy="lru", capacity=8, simulated=True, loads=10)
        b = TileSimulation(shape=(4,), policy="lru", capacity=8, simulated=True, loads=7)
        skipped = TileSimulation(shape=(8,), policy="lru", capacity=8, simulated=False)
        assert select_best([a, b, skipped]) == b
        assert select_best([skipped]) is None


class TestSizesBelowOne:
    """A cache or a shape budget below one word is refused before any
    expansion, simulation or store write."""

    @pytest.mark.parametrize(
        "sizes, name",
        [({"cache_words": 0}, "cache_words"), ({"max_candidates": 0}, "max_candidates"),
         ({"max_candidates": -3}, "max_candidates")],
        ids=["cache-words-0", "max-candidates-0", "max-candidates-negative"],
    )
    def test_raises_before_any_work(self, sizes, name, tmp_path):
        store = BoundStore(tmp_path / "store")
        reset_simulation_count()
        reset_expand_count()
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            search_upper_bounds(
                [(get_kernel("gemm").program, GEMM_INSTANCE)], store=store, **sizes
            )
        assert simulation_count() == 0
        assert expand_count() == 0
        assert len(store) == 0
