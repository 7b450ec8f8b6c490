"""Unit tests for the vectorised set kernels, memoisation and canonical caching.

The trust boundary (DESIGN.md "Set-algebra engine"): the numpy kernels of
:mod:`repro.sets.backend` either return exactly what the Python loops they
replace would return — same values, same order — or decline with ``None``,
and the memo caches are keyed on content.  These tests pin:

* ``fm_combine`` against the pair-combination loop, including the declines
  (fractional coefficients, int64 overflow);
* ``enumerate_points`` against the recursive enumeration loop, including
  point *order* and the declines (grid limit, free names, non-integer
  parameters);
* memo caching, constraint interning and set fingerprints;
* the canonical integer scaling of constraints (the re-canonicalisation
  bugfix sweep).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.sets import (
    EQ,
    GE,
    BasicSet,
    Constraint,
    LinExpr,
    Space,
    get_backend,
    parse_set,
)
from repro.sets import memo
from repro.sets.backend import ENUMERATION_GRID_LIMIT, enumerate_points, fm_combine
from repro.sets.basic_set import _intern_table, interned_count
from repro.sets.fourier_motzkin import (
    _combine_pairs,
    _split_bounds,
    eliminate_variable,
    project_out,
)


def _loop_combine(lower, upper) -> list[Constraint]:
    """The decline path's output, filtered the way ``eliminate_variable`` does."""
    return [c.normalized() for c in _combine_pairs(lower, upper) if not c.is_trivially_true()]


def _keys(constraints) -> list[tuple]:
    return [c.key() for c in constraints]


def test_engine_is_named_numpy():
    assert get_backend().name == "numpy"
    assert get_backend() is get_backend()


# -- Fourier-Motzkin pair combination -----------------------------------------


def _random_system(rng: random.Random, nvars: int = 3, n: int = 6, scale: int = 3) -> list[Constraint]:
    names = [f"x{k}" for k in range(nvars)]
    constraints = []
    for _ in range(n):
        coeffs = {name: rng.randint(-scale, scale) for name in rng.sample(names, rng.randint(1, nvars))}
        if not any(coeffs.values()):
            coeffs[names[0]] = 1
        kind = EQ if rng.random() < 0.2 else GE
        constraints.append(Constraint(LinExpr(coeffs, rng.randint(-5, 5)), kind))
    return constraints


class TestFmCombine:
    def test_kernel_matches_pair_loop_on_random_systems(self):
        rng = random.Random(424242)
        compared = 0
        for _ in range(60):
            system = [c.normalized() for c in _random_system(rng)]
            _, lower, upper = _split_bounds(system, "x0")
            kernel = fm_combine(lower, upper)
            assert kernel is not None
            assert _keys(kernel) == _keys(_loop_combine(lower, upper))
            compared += bool(lower and upper)
        assert compared >= 20

    def test_eliminate_variable_matches_the_decline_path(self, monkeypatch):
        rng = random.Random(424242)
        systems = [_random_system(rng) for _ in range(60)]
        optimised = [repr(eliminate_variable(system, "x0")) for system in systems]
        monkeypatch.setattr("repro.sets.fourier_motzkin.fm_combine", lambda lower, upper: None)
        assert [repr(eliminate_variable(system, "x0")) for system in systems] == optimised

    def test_empty_sides_combine_to_nothing(self):
        assert fm_combine([], [(Fraction(-1), LinExpr({"y": 1}, 0))]) == []
        assert fm_combine([(Fraction(1), LinExpr({"y": 1}, 0))], []) == []

    def test_fractional_coefficient_declines_to_the_loop(self):
        lower = [(Fraction(1, 2), LinExpr({"y": 1}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 4))]
        assert fm_combine(lower, upper) is None
        # 1/2*x + y >= 0 and -x + 4 >= 0 combine to y + 2 >= 0.
        assert _keys(_loop_combine(lower, upper)) == [(GE, (("y", 1),), 2)]

    def test_fractional_rest_declines_to_the_loop(self):
        lower = [(Fraction(1), LinExpr({"y": Fraction(1, 3)}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 4))]
        assert fm_combine(lower, upper) is None
        assert _keys(_loop_combine(lower, upper)) == [(GE, (("y", 1),), 12)]

    def test_int64_overflow_declines_to_the_loop(self):
        big = 1 << 33
        lower = [(Fraction(big), LinExpr({"y": big}, 0))]
        upper = [(Fraction(-big), LinExpr({}, big))]
        assert fm_combine(lower, upper) is None
        # big^2*y + big^2 >= 0, canonicalised exactly by the loop.
        assert _keys(_loop_combine(lower, upper)) == [(GE, (("y", 1),), 1)]

    def test_overflowing_system_still_eliminates_exactly(self):
        big = (1 << 33) + 1
        x = [
            Constraint(LinExpr({"x": big, "y": big}, 0), GE),
            Constraint(LinExpr({"x": -big, "y": 3}, 7), GE),
        ]
        _, lower, upper = _split_bounds(x, "x")
        assert fm_combine(lower, upper) is None
        assert _keys(eliminate_variable(x, "x")) == _keys(_loop_combine(lower, upper))

    def test_combination_drops_trivially_true_rows(self):
        # x >= 0 and x <= 5 combine to the trivially-true 5 >= 0: the kernel
        # must drop it exactly like the loop's filter.
        lower = [(Fraction(1), LinExpr({}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 5))]
        assert fm_combine(lower, upper) == []
        assert _loop_combine(lower, upper) == []


# -- point enumeration ----------------------------------------------------------


class TestEnumeration:
    def test_point_order_is_identical(self):
        triangle = parse_set("{ T[i, j] : 0 <= i and i <= 6 and i <= j and j <= 6 }")
        piece = triangle.pieces[0]
        points = enumerate_points(piece, {}, 2000)
        assert points is not None
        assert points == piece._enumerate_points_loop({})

    def test_parametric_set_matches_loop(self):
        band = parse_set("[N] -> { D[i, j] : 0 <= i and i <= N - 1 and i <= j and j <= i + 2 }")
        piece = band.pieces[0]
        points = enumerate_points(piece, {"N": 8}, 2000)
        assert points is not None
        assert points == piece._enumerate_points_loop({"N": 8})

    def test_empty_range_short_circuits(self):
        empty = parse_set("{ E[i] : 3 <= i and i <= 1 }").pieces[0]
        assert enumerate_points(empty, {}, 2000) == []
        assert empty._enumerate_points_loop({}) == []

    def test_oversized_grid_declines_to_the_loop(self):
        # The static grid is 1001^2 points; the loop bounds j by i - 998.
        piece = parse_set(
            "{ G[i, j] : 0 <= i and i <= 1000 and 0 <= j and j <= 1000 and j <= i - 998 }"
        ).pieces[0]
        assert 1001 ** 2 > ENUMERATION_GRID_LIMIT
        assert enumerate_points(piece, {}, 2000) is None
        assert piece.enumerate_points({}) == [
            (998, 0), (999, 0), (999, 1), (1000, 0), (1000, 1), (1000, 2)
        ]

    def test_free_name_declines_to_the_loop(self):
        space = Space("F", ("i",), ())
        leaky = BasicSet(space, [Constraint(LinExpr({"i": 1, "M": -1}, 0), GE)])
        assert enumerate_points(leaky, {}, 10) is None
        with pytest.raises(KeyError):
            leaky._enumerate_points_loop({}, 10)
        with pytest.raises(KeyError):
            leaky.enumerate_points({}, 10)

    def test_non_integer_parameter_declines_to_the_loop(self):
        band = parse_set("[N] -> { D[i] : 0 <= i and i <= N }").pieces[0]
        assert enumerate_points(band, {"N": 1.5}, 10) is None
        assert band.enumerate_points({"N": 1.5}, 10) == [(0,), (1,)]


# -- memo caches -----------------------------------------------------------------


class TestMemoCache:
    def test_repeated_key_computes_once(self):
        cache = memo.MemoCache("test.once", maxsize=8)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or len(calls)) == 1
        assert cache.get_or_compute("k", lambda: calls.append(1) or len(calls)) == 1
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_normalisation_interns_and_caches_normal_forms(self):
        a = Constraint(LinExpr({"i": 2}, 4), GE)
        b = Constraint(LinExpr({"i": 2}, 4), GE)
        assert a.normalized() is a.normalized()
        assert a.normalized() is b.normalized()
        assert a.normalized().expr.coeffs == {"i": 1}

    def test_cache_overflow_flushes(self):
        cache = memo.MemoCache("test.overflow", maxsize=4)
        for k in range(6):
            cache.get_or_compute(k, lambda k=k: k)
        assert len(cache) <= 4


# -- fingerprints and interning ----------------------------------------------


class TestFingerprints:
    def test_structurally_equal_sets_share_a_fingerprint(self):
        a = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        b = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_sets_have_different_fingerprints(self):
        a = parse_set("{ S[i] : 0 <= i and i <= 5 }").pieces[0]
        b = parse_set("{ S[i] : 0 <= i and i <= 6 }").pieces[0]
        assert a.fingerprint() != b.fingerprint()

    def test_scaled_constraints_canonicalise_to_one_fingerprint(self):
        a = parse_set("{ S[i] : 0 <= 2*i and 2*i <= 10 }").pieces[0]
        b = parse_set("{ S[i] : 0 <= i and i <= 5 }").pieces[0]
        assert a.fingerprint() == b.fingerprint()

    def test_interned_count_reports_table_size(self):
        before = interned_count()
        Constraint(LinExpr({"zq_unique_dim": 3}, 9), GE).normalized()
        assert interned_count() >= before
        assert interned_count() == len(_intern_table)


# -- canonicalisation (the bugfix sweep) ---------------------------------------


class TestCanonicalisation:
    def test_scaled_to_integers_returns_self_when_canonical(self):
        expr = LinExpr({"i": 2, "j": -3}, 5)
        assert expr.scaled_to_integers() is expr

    def test_scaled_to_integers_clears_denominators(self):
        expr = LinExpr({"i": Fraction(1, 2)}, 1)
        scaled = expr.scaled_to_integers()
        assert scaled.coeffs == {"i": 1}
        assert scaled.const == 2

    def test_scaled_to_integers_divides_common_factor(self):
        expr = LinExpr({"i": -2, "j": 4}, -6)
        scaled = expr.scaled_to_integers()
        assert scaled.coeffs == {"i": -1, "j": 2}
        assert scaled.const == -3


# -- memoised set queries -----------------------------------------------------


class TestQueryMemoisation:
    def test_repeated_emptiness_checks_hit_the_cache(self):
        from repro.sets.fourier_motzkin import basic_set_is_empty

        memo.EMPTINESS_CACHE.clear()
        memo.EMPTINESS_CACHE.reset_counters()
        piece = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        first = basic_set_is_empty(piece)
        hits_before = memo.EMPTINESS_CACHE.hits
        # A structurally equal set built independently must hit the cache.
        clone = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        second = basic_set_is_empty(clone)
        assert second == first
        assert memo.EMPTINESS_CACHE.hits == hits_before + 1

    def test_projection_results_are_correct(self):
        piece = parse_set("{ S[i, j] : 0 <= i and i <= 5 and i <= j and j <= 7 }").pieces[0]
        projected = project_out(piece, ["j"])
        assert projected.space.dims == ("i",)
        points = {p[0] for p in piece.enumerate_points({})}
        assert set(p[0] for p in projected.enumerate_points({})) == points
