"""Tests for symbolic cardinality: exactness against brute-force enumeration,
and the native count engine against its ``sympy.summation`` reference."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import random_program
from repro.polybench import all_kernels
from repro.sets import (
    BasicSet,
    CountingError,
    card,
    card_at,
    card_basic,
    card_upper,
    count_backend,
    lin_to_sympy,
    parse_set,
    sym,
)
from repro.sets.counting import _card_basic_cold


def instance_value(expr, **values):
    return int(expr.subs({sym(k): v for k, v in values.items()}))


class TestCardExactShapes:
    def test_rectangle(self):
        d = parse_set("[M, N] -> { S[i, j] : 0 <= i < M and 0 <= j < N }")
        assert sympy.expand(card(d)) == sym("M") * sym("N")

    def test_triangle(self):
        d = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }")
        n = sym("N")
        assert sympy.expand(card(d) - n * (n + 1) / 2) == 0

    def test_cholesky_domain(self):
        d = parse_set("[N] -> { S[k, i, j] : 1 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }")
        assert instance_value(card(d), N=10) == card_at(d, {"N": 10}) == 120

    def test_fixed_dimension(self):
        d = parse_set("[N, W] -> { S[i, j] : 0 <= i < N and 0 <= j < N and i = W }")
        assert sympy.expand(card(d)) == sym("N")

    def test_empty_set_is_zero(self):
        d = parse_set("[N] -> { S[i] : i < 0 and i >= 0 }")
        assert card(d) == 0

    def test_union_inclusion_exclusion(self):
        a = parse_set("[N] -> { S[i] : 0 <= i < N }")
        b = parse_set("[N] -> { S[i] : 0 <= i < N }")
        union = a.union(b)
        # Identical pieces: inclusion-exclusion must not double count.
        assert sympy.expand(card(union)) == sym("N")

    def test_card_upper_is_additive(self):
        a = parse_set("[N] -> { S[i] : 0 <= i < N }")
        union = a.union(a)
        assert sympy.expand(card_upper(union)) == 2 * sym("N")


class TestCardAgainstEnumeration:
    CASES = [
        ("[N] -> { S[i, j] : 0 <= i < N and i <= j < N }", {"N": 9}),
        ("[N] -> { S[i, j] : 0 <= i < N and 0 <= j < N and j <= i + 2 }", {"N": 7}),
        ("[M, N] -> { S[i, j, k] : 0 <= i < M and 0 <= j < N and 0 <= k <= j }", {"M": 4, "N": 6}),
        ("[N] -> { S[k, i] : 0 <= k < N and k + 1 <= i < N }", {"N": 11}),
        ("[T, N] -> { S[t, i] : 0 <= t < T and 1 <= i < N - 1 }", {"T": 5, "N": 9}),
    ]

    def test_cases_match_enumeration(self):
        for text, params in self.CASES:
            d = parse_set(text)
            symbolic = instance_value(card(d), **params)
            assert symbolic == card_at(d, params), text


@settings(max_examples=30, deadline=None)
@given(
    lo1=st.integers(0, 3), hi1=st.integers(4, 8),
    lo2=st.integers(0, 3), hi2=st.integers(4, 8),
)
def test_random_rectangles_match_enumeration(lo1, hi1, lo2, hi2):
    d = parse_set(
        f"[N] -> {{ S[i, j] : {lo1} <= i < {hi1} and {lo2} <= j < {hi2} }}"
    )
    assert instance_value(card(d), N=10) == card_at(d, {"N": 10})


@settings(max_examples=30, deadline=None)
@given(offset=st.integers(-3, 3), n=st.integers(6, 12))
def test_shifted_triangles_match_enumeration(offset, n):
    d = parse_set(f"[N] -> {{ S[i, j] : 0 <= i < N and 0 <= j and j <= i + {offset} }}")
    expected = card_at(d, {"N": n})
    got = instance_value(card(d), N=n)
    if offset >= 0:
        assert got == expected
    else:
        # Negative offsets make the first |offset| rows empty; the closed-form
        # summation counts them as negative-length ranges, so the symbolic
        # count may only *under*-estimate (the safe direction for |D|).
        assert got <= expected
        assert expected - got <= abs(offset) * (abs(offset) + 1) // 2


def test_nested_split_branches_guard_empty_subranges():
    """Regression: a case split must not sum over branch-empty sub-ranges.

    Found by the differential harness (tests/sets/test_differential.py): with
    two chained incomparable-bound splits (i1's upper depends on i0, i2's on
    i1, both racing against N), the inner branch condition carves a region of
    the outer domain where the summation interval is empty.  Summing the
    closed form there *subtracted* phantom points, so the error grew with N
    (the count even went negative) instead of vanishing in the large regime.
    """
    d = parse_set(
        "[N] -> { D[i0, i1, i2] : 3 <= i0 and i0 <= N - 2 and "
        "4 <= i1 and i1 <= N - 2 and i1 <= i0 + 2 and "
        "5 <= i2 and i2 <= N - 1 and i2 <= i1 + 3 }"
    )
    symbolic = card(d)
    for n in (9, 12, 15, 20, 30):
        assert instance_value(symbolic, N=n) == card_at(d, {"N": n})


BACKEND_AGREEMENT_CASES = [
    "[M, N] -> { S[i, j] : 0 <= i < M and 0 <= j < N }",
    "[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }",
    "[N] -> { S[k, i, j] : 1 <= k < N and k + 1 <= i < N and k + 1 <= j <= i }",
    "[N, W] -> { S[i, j] : 0 <= i < N and 0 <= j < N and i = W }",
    "[N] -> { S[i] : i < 0 and i >= 0 }",
    "[N] -> { S[i, j] : 0 <= i < N and 0 <= j and j <= i - 3 }",
    # The nested-split regression set: both engines must run the same case
    # splits and guard the same branch-empty sub-ranges.
    "[N] -> { D[i0, i1, i2] : 3 <= i0 and i0 <= N - 2 and "
    "4 <= i1 and i1 <= N - 2 and i1 <= i0 + 2 and "
    "5 <= i2 and i2 <= N - 1 and i2 <= i1 + 3 }",
]


class SympyWeightEngine:
    """The reference weight algebra: ``sympy.summation`` then ``expand`` per
    eliminated dimension, ``expand`` on every case-split combination."""

    zero = sympy.Integer(0)
    one = sympy.Integer(1)

    def sum_over(self, weight, dim, lower, upper):
        total = sympy.summation(weight, (sym(dim), lin_to_sympy(lower), lin_to_sympy(upper)))
        return sympy.expand(total)

    def combine(self, first, second):
        return sympy.expand(first + second)

    def finalize(self, weight):
        return weight


SYMPY_ENGINE = SympyWeightEngine()


def assert_matches_reference(domain, label):
    """``card_basic`` equals the sympy reference on every piece of ``domain``.

    A piece the recursion rejects must be rejected by both engines: the
    recursion raises :class:`CountingError` on set shape alone.
    """
    pieces = [domain] if isinstance(domain, BasicSet) else domain.pieces
    for piece in pieces:
        if piece.has_trivially_false_constraint():
            assert card_basic(piece) == 0, label
            continue
        try:
            native = card_basic(piece)
        except CountingError:
            with pytest.raises(CountingError):
                _card_basic_cold(piece, SYMPY_ENGINE)
            continue
        assert sympy.sstr(native) == sympy.sstr(_card_basic_cold(piece, SYMPY_ENGINE)), label


def _fuzz_domains():
    for profile in ("small", "wide", "deep"):
        for seed in range(8):
            program = random_program(seed, profile)
            for name, statement in program.statements.items():
                yield f"{profile}-{seed}:{name}", statement.domain


class TestSympyReferenceOracle:
    @pytest.mark.parametrize("text", BACKEND_AGREEMENT_CASES)
    def test_agreement_cases(self, text):
        d = parse_set(text)
        assert_matches_reference(d, text)
        if len(d.pieces) == 1:
            assert sympy.sstr(card(d)) == sympy.sstr(
                _card_basic_cold(d.pieces[0], SYMPY_ENGINE)
            )

    @pytest.mark.parametrize("spec", all_kernels(), ids=lambda spec: spec.name)
    def test_polybench_statement_domains(self, spec):
        for name, statement in spec.program.statements.items():
            assert_matches_reference(statement.domain, f"{spec.name}:{name}")

    def test_fuzz_statement_domains(self):
        labels = []
        for label, domain in _fuzz_domains():
            assert_matches_reference(domain, label)
            labels.append(label)
        assert len(labels) >= 24

    def test_count_backend_names_the_native_engine(self):
        assert count_backend() == "native"

    def test_card_basic_memoises_on_content(self):
        from repro.sets import memo

        d = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }")
        memo.CARD_CACHE.clear()
        memo.CARD_CACHE.reset_counters()
        first = card(d)
        misses = memo.CARD_CACHE.misses
        hits_before = memo.CARD_CACHE.hits
        assert card(d) == first
        assert memo.CARD_CACHE.hits == hits_before + 1
        assert memo.CARD_CACHE.misses == misses

    def test_counting_sum_timer_attributes_summation(self):
        from repro import perf

        perf.reset()
        d = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }")
        from repro.sets import memo

        memo.CARD_CACHE.clear()
        card(d)
        snapshot = perf.snapshot()
        counting = snapshot.timing("counting")
        summation = snapshot.timing("counting-sum")
        assert counting is not None and counting.calls > 0
        assert summation is not None and summation.calls > 0
        # counting-sum nests inside counting: its time must not double-count
        # into counting's exclusive column.
        assert summation.inclusive_s <= counting.inclusive_s
