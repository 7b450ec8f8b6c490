"""Unit tests for the set kernels, memoisation and canonical caching.

The trust boundary (DESIGN.md "Set-algebra engine"): the numpy enumeration
kernel of :mod:`repro.sets.backend` either returns exactly what the loop it
replaces would return — same values, same order — or declines with ``None``;
Fourier-Motzkin elimination is one exact integer loop checked against the
``Fraction`` oracle; and the memo caches are keyed on content.  These tests
pin:

* ``eliminate_variable``'s pair combination against the ``Fraction`` oracle
  (random systems, non-unit equalities, unnormalised ``Fraction`` inputs,
  coefficients past 2^62, trivially true and false rows);
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
from reference_affine import reference_fm_eliminate

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
from repro.sets.backend import ENUMERATION_GRID_LIMIT, enumerate_points
from repro.sets.basic_set import _intern_table, interned_count
from repro.sets.fourier_motzkin import eliminate_variable, project_out


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


def _fm_system(rng: random.Random, n: int = 6, scale: int = 3) -> list[Constraint]:
    """A random system whose equalities on ``x0`` have non-unit coefficients,
    so that eliminating ``x0`` takes the pair-combination branch."""
    system = []
    for constraint in _random_system(rng, n=n, scale=scale):
        if constraint.kind == EQ and abs(constraint.normalized().expr.coeff("x0")) == 1:
            constraint = Constraint(constraint.expr, GE)
        system.append(constraint)
    return system


class TestFmCombine:
    """The integer pair loop against the ``Fraction`` oracle: same keys,
    same order."""

    def test_eliminate_variable_matches_the_oracle_on_random_systems(self):
        rng = random.Random(424242)
        compared = equalities = 0
        for _ in range(120):
            system = _fm_system(rng)
            expected = reference_fm_eliminate(system, "x0")
            assert _keys(eliminate_variable(system, "x0")) == _keys(expected)
            compared += len(expected) > sum(c.expr.coeff("x0") == 0 for c in system)
            equalities += any(c.kind == EQ and c.expr.coeff("x0") for c in system)
        assert compared >= 20
        assert equalities >= 10

    def test_non_unit_equality_splits_into_both_bounds(self):
        # 2x = y + 1 and 0 <= x <= 5 give 0 <= y + 1 <= 10.
        system = [
            Constraint(LinExpr({"x": 2, "y": -1}, -1), EQ),
            Constraint(LinExpr({"x": 1}, 0), GE),
            Constraint(LinExpr({"x": -1}, 5), GE),
        ]
        keys = _keys(eliminate_variable(system, "x"))
        assert keys == _keys(reference_fm_eliminate(system, "x"))
        assert sorted(keys) == [(GE, (("y", -1),), 9), (GE, (("y", 1),), 1)]

    def test_unnormalised_fraction_inputs_match_the_oracle(self):
        rng = random.Random(8080)
        for _ in range(40):
            system = [
                Constraint(c.expr * Fraction(rng.randint(1, 9), rng.randint(1, 9)), c.kind)
                for c in _fm_system(rng)
            ]
            half = LinExpr({"x0": Fraction(1, 2), "x1": Fraction(2, 3)}, Fraction(5, 7))
            system.append(Constraint(half, GE))
            expected = reference_fm_eliminate(system, "x0")
            assert _keys(eliminate_variable(system, "x0")) == _keys(expected)

    def test_fractional_coefficients_combine_exactly(self):
        # 1/2*x + 1/3*y >= 0 and -x + 4 >= 0 combine to y + 6 >= 0.
        system = [
            Constraint(LinExpr({"x": Fraction(1, 2), "y": Fraction(1, 3)}, 0), GE),
            Constraint(LinExpr({"x": -1}, 4), GE),
        ]
        assert _keys(eliminate_variable(system, "x")) == [(GE, (("y", 1),), 6)]

    def test_coefficients_past_two_to_the_62_match_the_oracle(self):
        rng = random.Random(62)

        def huge(expr: LinExpr) -> LinExpr:
            coeffs = {n: v * ((1 << 62) + rng.randint(1, 99)) for n, v in expr.coeffs.items()}
            return LinExpr(coeffs, expr.const * (1 << 63))

        for _ in range(30):
            system = [Constraint(huge(c.expr), c.kind) for c in _fm_system(rng)]
            expected = reference_fm_eliminate(system, "x0")
            assert _keys(eliminate_variable(system, "x0")) == _keys(expected)

    def test_overflowing_system_still_eliminates_exactly(self):
        big = (1 << 33) + 1
        x = [
            Constraint(LinExpr({"x": big, "y": big}, 0), GE),
            Constraint(LinExpr({"x": -big, "y": 3}, 7), GE),
        ]
        # x + y >= 0 (normalised) and -big*x + 3y + 7 >= 0 combine to
        # (big + 3)*y + 7 >= 0.
        assert _keys(eliminate_variable(x, "x")) == _keys(reference_fm_eliminate(x, "x"))
        assert _keys(eliminate_variable(x, "x")) == [(GE, (("y", big + 3),), 7)]

    def test_one_sided_bounds_combine_to_nothing(self):
        system = [
            Constraint(LinExpr({"x": 1, "y": 1}, 0), GE),
            Constraint(LinExpr({"y": -1}, 3), GE),
        ]
        assert _keys(eliminate_variable(system, "x")) == [(GE, (("y", -1),), 3)]

    def test_combination_drops_trivially_true_rows(self):
        # x >= 0 and x <= 5 combine to the trivially-true 5 >= 0, and the
        # trivially-true 2 >= 0 among the others goes too.
        system = [
            Constraint(LinExpr({"x": 1}, 0), GE),
            Constraint(LinExpr({"x": -1}, 5), GE),
            Constraint(LinExpr({}, 2), GE),
        ]
        assert eliminate_variable(system, "x") == []
        assert reference_fm_eliminate(system, "x") == []

    def test_trivially_false_combination_is_kept_canonical(self):
        # x >= 3 and x <= 1 combine to -2 >= 0, canonicalised to -1 >= 0.
        system = [Constraint(LinExpr({"x": 1}, -3), GE), Constraint(LinExpr({"x": -1}, 1), GE)]
        assert _keys(eliminate_variable(system, "x")) == [(GE, (), -1)]
        assert _keys(reference_fm_eliminate(system, "x")) == [(GE, (), -1)]


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
