"""Unit tests for the set kernels, memoisation and canonical caching.

The trust boundary (DESIGN.md "Set-algebra engine"): point enumeration and
Fourier-Motzkin elimination are each one exact integer loop, checked against
the ``Fraction`` oracles of ``reference_affine``; and the memo caches are
keyed on content.  These tests pin:

* ``eliminate_variable``'s pair combination against the ``Fraction`` oracle
  (random systems, non-unit equalities, unnormalised integer inputs,
  coefficients past 2^62, trivially true and false rows);
* ``enumerate_points`` against the recursive ``Fraction`` loop oracle,
  including point *order*, and its answers on large grids, free names,
  rejected non-integer parameters, empty ranges and 0-dimensional sets;
* memo caching, constraint interning and set fingerprints;
* the canonical integer scaling of constraints (the re-canonicalisation
  bugfix sweep).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from reference_affine import reference_enumerate_points, reference_fm_eliminate

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
from repro.sets.basic_set import _intern_table, interned_count
from repro.sets.fourier_motzkin import eliminate_variable, project_out


def _keys(constraints) -> list[tuple]:
    return [c.key() for c in constraints]


def test_engine_is_named_int():
    assert get_backend().name == "int"
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

    def test_unnormalised_inputs_match_the_oracle(self):
        rng = random.Random(8080)
        for _ in range(40):
            system = [Constraint(c.expr * rng.randint(1, 9), c.kind) for c in _fm_system(rng)]
            common = LinExpr({"x0": 6, "x1": 4}, 10)
            system.append(Constraint(common, GE))
            expected = reference_fm_eliminate(system, "x0")
            assert _keys(eliminate_variable(system, "x0")) == _keys(expected)

    def test_unnormalised_coefficients_combine_exactly(self):
        # 6x + 4y >= 0 and -2x + 8 >= 0 normalise to 3x + 2y >= 0 and
        # -x + 4 >= 0, which combine to 2y + 12 >= 0, that is y + 6 >= 0.
        system = [
            Constraint(LinExpr({"x": 6, "y": 4}, 0), GE),
            Constraint(LinExpr({"x": -2}, 8), GE),
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
        points = piece.enumerate_points({})
        assert len(points) == 28
        assert points == reference_enumerate_points(piece, {})

    def test_parametric_set_matches_the_oracle(self):
        band = parse_set("[N] -> { D[i, j] : 0 <= i and i <= N - 1 and i <= j and j <= i + 2 }")
        piece = band.pieces[0]
        assert piece.enumerate_points({"N": 8}) == reference_enumerate_points(piece, {"N": 8})

    def test_order_differs_from_dims_order(self):
        # j is bounded by constants only, so it is assigned before i; the
        # points still come as (i, j) tuples.
        piece = parse_set("{ P[i, j] : 0 <= j and j <= 2 and j <= i and i <= j + 1 }").pieces[0]
        assert piece._enumeration_order() == ["j", "i"]
        points = piece.enumerate_points({})
        assert points == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
        assert points == reference_enumerate_points(piece, {})

    def test_equalities_with_non_unit_coefficients(self):
        piece = parse_set("{ Q[i, j] : 0 <= i and i <= 9 and 3*j = 2*i }").pieces[0]
        points = piece.enumerate_points({})
        assert points == [(0, 0), (3, 2), (6, 4), (9, 6)]
        assert points == reference_enumerate_points(piece, {})

    def test_inequalities_with_non_unit_coefficients(self):
        # 2*i >= 3 gives i >= 2 (ceiling); 3*j <= i + 1 gives j <= (i + 1) // 3.
        piece = parse_set("{ C[i, j] : 2*i >= 3 and i <= 6 and 0 <= j and 3*j <= i + 1 }").pieces[0]
        points = piece.enumerate_points({})
        assert points == [
            (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 2)
        ]
        assert points == reference_enumerate_points(piece, {})

    def test_random_systems_match_the_oracle(self):
        """Coupled constraints with coefficients up to 3 in size, equalities
        included, inside a box: the floor/ceiling and divisibility cases the
        unit-coefficient polytope battery never reaches."""
        rng = random.Random(31337)
        nonempty = 0
        for case in range(150):
            names = [f"x{k}" for k in range(rng.randint(1, 3))]
            space = Space("R", tuple(names), ("N",))
            constraints = []
            for name in names:
                constraints.append(Constraint(LinExpr({name: 1}, 0), GE))
                constraints.append(Constraint(LinExpr({name: -1, "N": 1}, 0), GE))
            for _ in range(rng.randint(1, 3)):
                coeffs = {name: rng.randint(-3, 3) for name in names}
                coeffs["N"] = rng.randint(-1, 1)
                kind = EQ if rng.random() < 0.25 else GE
                constraints.append(Constraint(LinExpr(coeffs, rng.randint(-6, 6)), kind))
            piece = BasicSet(space, constraints)
            params = {"N": rng.randint(0, 7)}
            expected = reference_enumerate_points(piece, params)
            assert piece.enumerate_points(params) == expected, f"case {case}: {piece!r}"
            nonempty += bool(expected)
        assert nonempty >= 40

    def test_empty_range(self):
        empty = parse_set("{ E[i] : 3 <= i and i <= 1 }").pieces[0]
        assert empty.enumerate_points({}) == []
        assert reference_enumerate_points(empty, {}) == []

    def test_zero_dimensional_set(self):
        space = Space("Z", (), ("N",))
        holds = BasicSet(space, [Constraint(LinExpr({"N": 1}, -2), GE)])
        assert holds.enumerate_points({"N": 5}) == [()]
        assert holds.enumerate_points({"N": 1}) == []
        assert reference_enumerate_points(holds, {"N": 5}) == [()]
        assert BasicSet.universe(Space("U", ())).enumerate_points({}) == [()]

    def test_large_static_grid_is_bounded_by_coupled_constraints(self):
        # The static grid is 1001^2 points; j is bounded by i - 998.
        piece = parse_set(
            "{ G[i, j] : 0 <= i and i <= 1000 and 0 <= j and j <= 1000 and j <= i - 998 }"
        ).pieces[0]
        assert piece.enumerate_points({}) == [
            (998, 0), (999, 0), (999, 1), (1000, 0), (1000, 1), (1000, 2)
        ]

    def test_unbounded_dimension_is_capped_by_bound(self):
        ray = parse_set("{ R[i] : i >= 7 }").pieces[0]
        assert ray.enumerate_points({}, 10) == [(7,), (8,), (9,), (10,)]
        assert ray.enumerate_points({}, 10) == reference_enumerate_points(ray, {}, 10)

    def test_free_name_raises_key_error(self):
        space = Space("F", ("i",), ())
        leaky = BasicSet(space, [Constraint(LinExpr({"i": 1, "M": -1}, 0), GE)])
        with pytest.raises(KeyError):
            leaky.enumerate_points({}, 10)

    def test_non_integer_parameter_raises(self):
        band = parse_set("[N] -> { D[i] : 0 <= i and i <= N }").pieces[0]
        for value in (1.5, Fraction(5, 2), "2"):
            with pytest.raises(ValueError):
                band.enumerate_points({"N": value}, 10)
        assert band.enumerate_points({"N": Fraction(4, 2)}, 10) == [(0,), (1,), (2,)]
        pinned = parse_set("[N] -> { D[i] : 2*i = N }").pieces[0]
        assert pinned.enumerate_points({"N": 7}, 10) == []
        assert pinned.enumerate_points({"N": 6}, 10) == [(3,)]


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

    def test_non_integral_coefficient_raises(self):
        with pytest.raises(ValueError):
            LinExpr({"i": Fraction(1, 2)}, 1)
        with pytest.raises(ValueError):
            LinExpr({"i": 1}, Fraction(1, 2))
        scaled = LinExpr({"i": Fraction(4, 2)}, Fraction(2)).scaled_to_integers()
        assert scaled.coeffs == {"i": 1}
        assert scaled.const == 1
        assert all(type(v) is int for v in (*scaled.coeffs.values(), scaled.const))

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
