"""Parser for ISL-like set and map strings.

Supports the subset of ISL syntax used throughout the paper and the PolyBench
kernel descriptions, e.g.::

    [M, N] -> { S[t, i] : 0 <= t < M and 0 <= i < N }
    [N]    -> { S3[k, i, j] -> S3[k - 1, i, j] : 1 <= k < N and k + 1 <= i < N }

Expressions are integer affine combinations of dimensions and parameters
(``2*i``, ``i + 1``, ``-j``).  Comparison chains (``0 <= i < N``) expand into
the corresponding conjunction; conjuncts are joined with ``and``.
"""

from __future__ import annotations

import re

from .affine import LinExpr
from .affine_map import AffineFunction
from .basic_set import EQ, GE, BasicSet, Constraint
from .pset import ParamSet
from .space import Space

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op><=|>=|==|<|>|=|\+|-|\*|,|:|;))"
)


class ParseError(ValueError):
    """Raised on malformed set/map strings."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser over a token list for affine expressions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def parse_expr(self) -> LinExpr:
        expr = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.parse_term()
            expr = expr + term if op == "+" else expr - term
        return expr

    def parse_term(self) -> LinExpr:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        token = self.next()
        if token.isdigit():
            value = int(token)
            if self.peek() == "*":
                self.next()
                name = self.next()
                if not name.isidentifier():
                    raise ParseError(f"expected identifier after '*', got {name!r}")
                return LinExpr({name: sign * value})
            return LinExpr.constant(sign * value)
        if token.isidentifier():
            if self.peek() == "*":
                self.next()
                num = self.next()
                if not num.isdigit():
                    raise ParseError(f"expected number after '*', got {num!r}")
                return LinExpr({token: sign * int(num)})
            return LinExpr({token: sign})
        raise ParseError(f"unexpected token {token!r} in expression")


def _parse_constraints(text: str) -> list[Constraint]:
    constraints: list[Constraint] = []
    conjuncts = re.split(r"\band\b", text)
    for conjunct in conjuncts:
        conjunct = conjunct.strip()
        if not conjunct:
            continue
        parser = _ExprParser(_tokenize(conjunct))
        exprs = [parser.parse_expr()]
        ops = []
        while parser.peek() in ("<=", "<", ">=", ">", "=", "=="):
            ops.append(parser.next())
            exprs.append(parser.parse_expr())
        if parser.peek() is not None:
            raise ParseError(f"trailing tokens in constraint {conjunct!r}")
        if not ops:
            raise ParseError(f"no comparison operator in constraint {conjunct!r}")
        for left, op, right in zip(exprs, ops, exprs[1:]):
            if op in ("=", "=="):
                constraints.append(Constraint(left - right, EQ))
            elif op == "<=":
                constraints.append(Constraint(right - left, GE))
            elif op == "<":
                constraints.append(Constraint(right - left - 1, GE))
            elif op == ">=":
                constraints.append(Constraint(left - right, GE))
            elif op == ">":
                constraints.append(Constraint(left - right - 1, GE))
    return constraints


def _split_header(text: str) -> tuple[tuple[str, ...], str]:
    """Split ``[params] -> { body }`` into parameter names and the body."""
    text = text.strip()
    params: tuple[str, ...] = ()
    if text.startswith("["):
        end = text.index("]")
        raw = text[1:end].strip()
        params = tuple(p.strip() for p in raw.split(",") if p.strip())
        text = text[end + 1:].strip()
        if not text.startswith("->"):
            raise ParseError("expected '->' after parameter list")
        text = text[2:].strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("set/map body must be enclosed in braces")
    return params, text[1:-1].strip()


_TUPLE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\[([^\]]*)\]\s*")


def parse_set(text: str) -> ParamSet:
    """Parse an ISL-like set string into a :class:`ParamSet`."""
    params, body = _split_header(text)
    if ":" in body:
        tuple_part, constraint_part = body.split(":", 1)
    else:
        tuple_part, constraint_part = body, ""
    match = _TUPLE_RE.match(tuple_part)
    if not match:
        raise ParseError(f"malformed tuple in {tuple_part!r}")
    name = match.group(1)
    dims = tuple(d.strip() for d in match.group(2).split(",") if d.strip())
    space = Space(name, dims, params)
    constraints = _parse_constraints(constraint_part) if constraint_part.strip() else []
    return ParamSet.from_basic(BasicSet(space, constraints))


def parse_function(text: str) -> tuple[AffineFunction, ParamSet]:
    """Parse an ISL-like single-valued map string.

    The map must be in function form ``{ Sink[dims] -> Source[exprs] : cond }``
    where every ``expr`` is affine in the sink dims and parameters.  Returns
    the affine function (sink -> source) together with the sink-side domain on
    which the dependence applies.
    """
    params, body = _split_header(text)
    if ":" in body:
        relation_part, constraint_part = body.split(":", 1)
    else:
        relation_part, constraint_part = body, ""
    if "->" not in relation_part:
        raise ParseError("map body must contain '->'")
    sink_text, source_text = relation_part.split("->", 1)

    sink_match = _TUPLE_RE.match(sink_text)
    if not sink_match:
        raise ParseError(f"malformed sink tuple in {sink_text!r}")
    sink_name = sink_match.group(1)
    sink_dims = tuple(d.strip() for d in sink_match.group(2).split(",") if d.strip())
    sink_space = Space(sink_name, sink_dims, params)

    source_match = _TUPLE_RE.match(source_text)
    if not source_match:
        raise ParseError(f"malformed source tuple in {source_text!r}")
    source_name = source_match.group(1)
    raw_exprs = _split_top_level_commas(source_match.group(2))
    exprs = []
    for raw in raw_exprs:
        parser = _ExprParser(_tokenize(raw))
        exprs.append(parser.parse_expr())
        if parser.peek() is not None:
            raise ParseError(f"trailing tokens in expression {raw!r}")

    constraints = _parse_constraints(constraint_part) if constraint_part.strip() else []
    domain = ParamSet.from_basic(BasicSet(sink_space, constraints))
    function = AffineFunction(sink_space, source_name, exprs)
    return function, domain


def _split_top_level_commas(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    return [p for p in parts if p]
