"""``LinExpr`` arithmetic against the ``Fraction``-rebuilding oracle.

``reference_affine`` holds the rational arithmetic that the integer
``LinExpr``, its trusted constructor and its one-pass ``substitute``
replaced.  Random integer expressions (often with a common factor, so that
normalisation divides), cancelling terms and substitutions that bring a name
back must give equal values *and* equal coefficient order: constraint order,
FM pair order and so the derived bounds follow ``coeffs`` order.  Every
coefficient of the result is an ``int``.
"""

from __future__ import annotations

import random

import pytest
from reference_affine import ReferenceLinExpr

from repro.sets import LinExpr

NAMES = ("a", "b", "c", "d", "e")


def _random_value(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return rng.randint(-12, 12)
    return rng.choice((0, 0, 1, -1, 2, -3))


def _random_pair(rng: random.Random):
    names = rng.sample(NAMES, rng.randint(0, len(NAMES)))
    factor = rng.choice((1, 1, 2, 3, 4))
    coeffs = {name: factor * _random_value(rng) for name in names}
    const = factor * _random_value(rng)
    return LinExpr(coeffs, const), ReferenceLinExpr(coeffs, const)


def _assert_same(fast: LinExpr, reference: ReferenceLinExpr) -> None:
    assert list(fast.coeffs.items()) == list(reference.coeffs.items())
    assert fast.const == reference.const
    assert all(type(value) is int and value for value in fast.coeffs.values())
    assert type(fast.const) is int


def _random_mapping(rng: random.Random):
    """Replacements that often mention the names they replace, or cancel them."""
    fast, reference = {}, {}
    for name in rng.sample(NAMES, rng.randint(1, 3)):
        if rng.random() < 0.25:
            value = _random_value(rng)
            fast[name], reference[name] = value, value
        else:
            fast[name], reference[name] = _random_pair(rng)
    return fast, reference


@pytest.mark.parametrize("seed", range(20))
def test_arithmetic_matches_the_oracle(seed):
    rng = random.Random(seed)
    pool = [_random_pair(rng) for _ in range(6)]
    for _ in range(300):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("add", "sub", "neg", "mul", "subst", "scale", "int"))
        if op == "add":
            result = (x + y, rx + ry)
        elif op == "sub":
            result = (x - y, rx - ry)
        elif op == "neg":
            result = (-x, -rx)
        elif op == "mul":
            scalar = _random_value(rng)
            result = (x * scalar, rx * scalar)
        elif op == "subst":
            mapping, reference_mapping = _random_mapping(rng)
            result = (x.substitute(mapping), rx.substitute(reference_mapping))
        elif op == "scale":
            result = (x.scaled_to_integers(), rx.scaled_to_integers())
            assert (result[0] is x) == (result[1] is rx)
        else:
            value = _random_value(rng)
            result = (x + value, rx + value)
        _assert_same(*result)
        pool[rng.randrange(len(pool))] = result


def test_cancelled_name_is_appended_when_it_comes_back():
    # a cancels against the replacement of b, then returns through c.
    expr = LinExpr({"a": 1, "b": 1, "c": 1})
    mapping = {"b": LinExpr({"a": -1, "d": 2}), "c": LinExpr({"a": 3})}
    reference = ReferenceLinExpr({"a": 1, "b": 1, "c": 1}).substitute(
        {"b": ReferenceLinExpr({"a": -1, "d": 2}), "c": ReferenceLinExpr({"a": 3})}
    )
    result = expr.substitute(mapping)
    assert list(result.coeffs) == ["d", "a"]
    _assert_same(result, reference)


@pytest.mark.parametrize("seed", range(10))
def test_canonical_expression_scales_to_itself(seed):
    rng = random.Random(seed)
    for _ in range(50):
        fast, reference = _random_pair(rng)
        canonical = fast.scaled_to_integers()
        _assert_same(canonical, reference.scaled_to_integers())
        assert canonical.scaled_to_integers() is canonical
