"""Differential tests: the symbolic set substrate vs. brute-force enumeration.

The whole derivation stack (counting sub-bound cardinalities, projecting
may-spill sets, subtracting already-covered domains) rests on `repro.sets`.
These tests pin the symbolic machinery against ground truth on hundreds of
seeded, randomized small polytopes:

* :func:`repro.sets.card` (the Fourier–Motzkin / Faulhaber counting path)
  against explicit integer-point enumeration, inside the documented contract
  — unit-coefficient bounds, large-parameter (non-empty) regime;
* :meth:`ParamSet.project_onto` (rational projection, exact here because
  every eliminated dimension has unit coefficients) against pointwise
  projection of the enumerated set;
* the ``union`` / ``intersect`` / ``subtract`` algebra against Python set
  algebra on the enumerated points;

plus hypothesis property tests for the closed-form counting cases.
"""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import (
    BasicSet,
    CountingError,
    ParamSet,
    Space,
    card,
    card_basic,
    parse_set,
    sym,
)

#: Values of N used for the brute-force comparison.  "Large" relative to
#: every offset the generator can produce: all chamber boundaries introduced
#: by case splits (conditions like ``N >= c`` with c a sum of two generated
#: offsets) lie below 17, so at these values the single asymptotic-chamber
#: polynomial that ``card`` returns must agree exactly with enumeration.
PARAM_VALUES = (17, 21)


def random_polytope(rng: random.Random, ndim: int | None = None) -> ParamSet:
    """A random parametric polytope inside `card`'s documented contract.

    Every constraint has unit coefficients, and every dimension's range is
    non-empty *pointwise* — for all values of the outer dimensions and all
    ``N >= 7`` — which is exactly the "large regime, non-empty loop ranges"
    precondition under which the symbolic count is exact (the same shape
    every PolyBench iteration domain has).  The generator tracks, per
    dimension, a guaranteed constant lower bound (``min_val``) and a
    guaranteed parametric upper bound ``N - slack`` (``slack=None`` when the
    upper bound is constant or inherited), and only emits bound pairs whose
    non-emptiness follows from those invariants.  Redundant extra bounds are
    mixed in to exercise dominant-bound selection, and the "split" shape
    creates genuinely incomparable upper bounds to exercise case splits.
    """
    ndim = ndim if ndim is not None else rng.randint(1, 3)
    dims = [f"i{k}" for k in range(ndim)]
    clauses: list[str] = []
    min_val: list[int] = []     # dim k >= min_val[k] always holds
    slack: list[int | None] = []  # dim k <= N - slack[k] always holds (if set)

    for k, dim in enumerate(dims):
        options = ["box", "constbox"]
        if k:
            options.append("band")
            if any(s is not None for s in slack):
                options.append("triangle_up")
            if any(m >= 0 for m in min_val):
                options.append("triangle_down")
            if any(s is not None and m >= 0 for s, m in zip(slack, min_val)):
                options.append("split")
        choice = rng.choice(options)

        if choice == "box":            # c0 <= dim <= N - c1
            lo, c1 = rng.randint(0, 3), rng.randint(1, 4)
            c1 = min(c1, 7 - lo)       # non-empty at N = 7
            clauses += [f"{lo} <= {dim}", f"{dim} <= N - {c1}"]
            min_val.append(lo)
            slack.append(c1)
        elif choice == "constbox":     # c0 <= dim <= c0 + w
            lo, width = rng.randint(0, 3), rng.randint(0, 5)
            clauses += [f"{lo} <= {dim}", f"{dim} <= {lo + width}"]
            min_val.append(lo)
            slack.append(None)
        elif choice == "band":         # i_j - c <= dim <= i_j + c'
            j = rng.randrange(k)
            c, cp = rng.randint(0, 3), rng.randint(0, 3)
            clauses += [f"{dims[j]} - {c} <= {dim}", f"{dim} <= {dims[j]} + {cp}"]
            min_val.append(min_val[j] - c)
            inherited = None if slack[j] is None else slack[j] - cp
            slack.append(inherited if inherited and inherited >= 1 else None)
        elif choice == "triangle_up":  # i_j <= dim <= N - c1 (c1 <= slack[j])
            j = rng.choice([x for x in range(k) if slack[x] is not None])
            c1 = rng.randint(1, slack[j])
            clauses += [f"{dims[j]} <= {dim}", f"{dim} <= N - {c1}"]
            min_val.append(min_val[j])
            slack.append(c1)
        elif choice == "triangle_down":  # c0 <= dim <= i_j (c0 <= min_val[j])
            j = rng.choice([x for x in range(k) if min_val[x] >= 0])
            lo = rng.randint(0, min_val[j])
            clauses += [f"{lo} <= {dim}", f"{dim} <= {dims[j]}"]
            min_val.append(lo)
            slack.append(slack[j])
        else:                          # split: two incomparable upper bounds
            j = rng.choice(
                [x for x in range(k) if slack[x] is not None and min_val[x] >= 0]
            )
            cp = rng.randint(0, 3)
            lo = rng.randint(0, min_val[j] + cp)
            c1 = rng.randint(1, max(1, min(4, 7 - lo)))
            clauses += [
                f"{lo} <= {dim}",
                f"{dim} <= N - {c1}",
                f"{dim} <= {dims[j]} + {cp}",
            ]
            min_val.append(lo)
            slack.append(c1)

        # Redundant bounds (never tighter than the real ones) keep the
        # dominant-bound machinery honest without changing the set.
        if min_val[k] >= 0 and rng.random() < 0.3:
            clauses.append(f"0 <= {dim}")
        if slack[k] is not None and rng.random() < 0.3:
            clauses.append(f"{dim} <= N")

    text = f"[N] -> {{ D[{', '.join(dims)}] : {' and '.join(clauses)} }}"
    return parse_set(text)


class TestCardDifferential:
    """card() == brute-force count on hundreds of random polytopes."""

    CASES = 140

    def test_symbolic_card_matches_enumeration(self):
        rng = random.Random(20260728)
        compared = 0
        uncountable = 0
        for case in range(self.CASES):
            pset = random_polytope(rng)
            try:
                symbolic = card(pset)
            except CountingError:
                uncountable += 1
                continue
            for value in PARAM_VALUES:
                points = pset.enumerate_points({"N": value})
                if not points:
                    continue  # outside the documented non-empty regime
                expected = len(points)
                actual = symbolic.subs(sym("N"), value)
                assert actual == expected, (
                    f"case {case}: card mismatch at N={value}: "
                    f"symbolic {symbolic} -> {actual}, enumeration {expected}\n{pset!r}"
                )
                compared += 1
        # The test must actually exercise the counting path, not skip its way
        # to green: most cases are countable and non-empty by construction.
        assert compared >= self.CASES, f"only {compared} comparisons ran"
        assert uncountable <= self.CASES // 5, f"{uncountable} CountingErrors"

    def test_card_upper_is_a_true_upper_bound_on_unions(self):
        from repro.sets import card_upper

        rng = random.Random(42)
        compared = 0
        for _ in range(60):
            a = random_polytope(rng, ndim=2)
            b = random_polytope(rng, ndim=2)
            union = a.union(b.with_tuple_name(a.space.tuple_name))
            try:
                upper = card_upper(union)
            except CountingError:
                continue
            for value in PARAM_VALUES:
                exact = len(union.enumerate_points({"N": value}))
                if exact == 0:
                    continue
                bound = upper.subs(sym("N"), value)
                assert bound >= exact, (
                    f"card_upper {bound} < exact {exact} at N={value}\n{union!r}"
                )
                compared += 1
        assert compared >= 60


class TestProjectionDifferential:
    """Rational projection is integer-exact for unit-coefficient polytopes."""

    CASES = 70

    def test_project_onto_matches_pointwise_projection(self):
        rng = random.Random(987654321)
        compared = 0
        for case in range(self.CASES):
            pset = random_polytope(rng, ndim=rng.randint(2, 3))
            dims = pset.space.dims
            keep = sorted(rng.sample(range(len(dims)), rng.randint(1, len(dims) - 1)))
            kept_names = [dims[k] for k in keep]
            projected = pset.project_onto(kept_names)
            assert projected.space.dims == tuple(kept_names)
            for value in PARAM_VALUES:
                params = {"N": value}
                expected = {
                    tuple(point[k] for k in keep)
                    for point in pset.enumerate_points(params)
                }
                actual = set(projected.enumerate_points(params))
                assert actual == expected, (
                    f"case {case}: projection onto {kept_names} diverges at "
                    f"N={value}: {sorted(actual ^ expected)[:8]}\n{pset!r}"
                )
                if expected:
                    compared += 1
        assert compared >= self.CASES


class TestAlgebraDifferential:
    """union / intersect / subtract agree with set algebra on the points."""

    CASES = 50

    def _pairs(self):
        rng = random.Random(555)
        for _ in range(self.CASES):
            ndim = rng.randint(1, 3)
            a = random_polytope(rng, ndim=ndim)
            b = random_polytope(rng, ndim=ndim).with_tuple_name(a.space.tuple_name)
            yield a, b

    def test_union_intersect_subtract_match_point_algebra(self):
        checked = 0
        for a, b in self._pairs():
            for value in PARAM_VALUES:
                params = {"N": value}
                pa = set(a.enumerate_points(params))
                pb = set(b.enumerate_points(params))
                assert set(a.union(b).enumerate_points(params)) == pa | pb
                assert set(a.intersect(b).enumerate_points(params)) == pa & pb
                assert set(a.subtract(b).enumerate_points(params)) == pa - pb
                if pa and pb:
                    checked += 1
        assert checked >= self.CASES // 2

    def test_subtract_then_intersect_partitions_the_set(self):
        rng = random.Random(777)
        for _ in range(30):
            a = random_polytope(rng, ndim=2)
            b = random_polytope(rng, ndim=2).with_tuple_name(a.space.tuple_name)
            params = {"N": 9}
            difference = set(a.subtract(b).enumerate_points(params))
            overlap = set(a.intersect(b).enumerate_points(params))
            original = set(a.enumerate_points(params))
            assert difference | overlap == original
            assert not (difference & overlap)


# -- kernel parity and memo parity -------------------------------------------

from repro.sets import memo as sets_memo  # noqa: E402
from repro.sets.fourier_motzkin import eliminate_variable  # noqa: E402
from reference_affine import reference_enumerate_points, reference_fm_eliminate  # noqa: E402


class TestKernelParity:
    """Point enumeration must be byte-identical to the recursive ``Fraction``
    loop oracle, Fourier-Motzkin elimination to the ``Fraction`` pair loop
    oracle, and the memo caches must not change any answer.

    Exact equality throughout: the same point lists in the same order, the
    same canonicalised constraint systems — not merely equivalent sets.
    """

    CASES = 30

    def _battery(self, seed: int) -> list[ParamSet]:
        rng = random.Random(seed)
        return [random_polytope(rng, ndim=rng.randint(2, 3)) for _ in range(self.CASES)]

    def test_enumeration_matches_the_oracle(self):
        compared = 0
        for case, poly in enumerate(self._battery(97531)):
            for piece in poly.pieces:
                for value in (0, 3, 9):
                    expected = reference_enumerate_points(piece, {"N": value})
                    assert piece.enumerate_points({"N": value}) == expected, (
                        f"case {case} at N={value}\n{poly!r}"
                    )
                    compared += bool(expected)
        assert compared >= self.CASES

    def test_cdag_expansion_matches_the_oracle_on_every_kernel(self, monkeypatch):
        """Every PolyBench kernel's explicit CDAG at a small instance: the
        same vertex order and the same predecessor tuples with the oracle
        enumerating the domains instead, so ``CDAGIndex`` ids and schedules
        do not move."""
        from repro.ir import CDAG
        from repro.polybench import get_kernel, kernel_names
        from repro.sets import BasicSet

        def expand_all():
            indexes = []
            for name in kernel_names():
                spec = get_kernel(name)
                small = {param: min(value, 5) for param, value in spec.large_instance.items()}
                index = CDAG.expand(spec.program, small).index
                indexes.append((name, index.vertices, index.preds))
            return indexes

        fast = expand_all()
        monkeypatch.setattr(BasicSet, "enumerate_points", reference_enumerate_points)
        slow = expand_all()
        assert len(fast) == 30
        assert sum(len(vertices) for _, vertices, _ in fast) > 1000
        for (name, vertices, preds), expected in zip(fast, slow):
            assert (name, vertices, preds) == expected, name

    def test_fm_elimination_matches_the_oracle(self):
        combined = 0
        for case, poly in enumerate(self._battery(97531)):
            for piece in poly.pieces:
                for dim in piece.space.dims:
                    try:
                        slow = reference_fm_eliminate(piece.constraints, dim)
                    except ValueError:
                        continue  # a unit equality: eliminated by substitution
                    fast = eliminate_variable(piece.constraints, dim)
                    assert [c.key() for c in fast] == [c.key() for c in slow], (
                        f"case {case} on {dim}\n{poly!r}"
                    )
                    combined += 1
        assert combined >= self.CASES

    def test_card_battery_cold_equals_warm(self):
        """Memo keys are content hashes: a cold run (every cache cleared
        before each case) and a warm rerun give identical answers."""
        polys = self._battery(20260807)

        def answers(poly: ParamSet):
            try:
                count = sympy.sstr(card(poly))
            except CountingError:
                count = None
            return (
                count,
                poly.enumerate_points({"N": PARAM_VALUES[0]}),
                repr(poly.project_onto(list(poly.space.dims[:1]))),
                poly.is_empty(),
            )

        cold = []
        for poly in polys:
            sets_memo.clear_all()
            cold.append(answers(poly))
        hits_before = sets_memo.CARD_CACHE.hits
        warm = [answers(poly) for poly in polys]
        assert warm == cold
        assert sets_memo.CARD_CACHE.hits > hits_before
        assert sum(answer[0] is not None for answer in cold) >= self.CASES * 3 // 4


# -- hypothesis property tests -------------------------------------------------

box_bounds = st.tuples(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=6)
)


class TestCountingProperties:
    @given(bounds=st.lists(box_bounds, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_concrete_box_cardinality_is_the_product_of_widths(self, bounds):
        dims = tuple(f"i{k}" for k in range(len(bounds)))
        space = Space("B", dims, ())
        box = BasicSet.from_bounds(
            space, {d: (lo, lo + width) for d, (lo, width) in zip(dims, bounds)}
        )
        expected = 1
        for _lo, width in bounds:
            expected *= width + 1
        assert card_basic(box) == expected
        assert len(box.enumerate_points({})) == expected

    @given(n=st.integers(min_value=1, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_concrete_triangle_count_is_the_gauss_sum(self, n):
        triangle = parse_set(
            f"{{ T[i, j] : 0 <= i and i <= {n - 1} and i <= j and j <= {n - 1} }}"
        )
        assert card(triangle) == n * (n + 1) // 2
        assert len(triangle.enumerate_points({})) == n * (n + 1) // 2

    @given(offset=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_parametric_band_count_evaluates_exactly(self, offset):
        band = parse_set(
            f"[N] -> {{ D[i, j] : 0 <= i and i <= N - 1 and "
            f"i <= j and j <= i + {offset} }}"
        )
        symbolic = card(band)
        for value in (7, 12):
            expected = len(band.enumerate_points({"N": value}))
            assert symbolic.subs(sym("N"), value) == expected

    @given(n=st.integers(min_value=9, max_value=15), cut=st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_inclusion_exclusion_on_overlapping_intervals(self, n, cut):
        # n >= 2*cut + 1 keeps the overlap [cut, N - cut - 1] non-empty — the
        # regime in which inclusion-exclusion over the pieces is exact.
        left = parse_set(f"[N] -> {{ I[i] : 0 <= i and i <= N - {cut + 1} }}")
        right = parse_set(f"[N] -> {{ I[i] : {cut} <= i and i <= N - 1 }}")
        union = left.union(right)
        symbolic = card(union)
        expected = len(union.enumerate_points({"N": n}))
        assert symbolic.subs(sym("N"), n) == expected
        assert isinstance(symbolic, sympy.Expr)
