"""Symbolic I/O lower-bound expressions.

The bounds produced by IOLB are functions of the program parameters
(``N``, ``M``, ...) and of the fast-memory capacity ``S``.  This module wraps
the sympy plumbing:

* ``S_SYMBOL`` — the cache-size symbol shared by the whole library;
* :func:`asymptotic_leading` — the "keep only the dominant term" simplification
  used for the right-hand column of Table 2, under the paper's asymptotic
  assumption (all parameters tend to infinity and ``S = o(parameters)``);
* :class:`SubBound` — one lower bound for one sub-CDAG, together with its
  may-spill set (needed by the decomposition lemma);
* :class:`IOBoundResult` — the final result of Algorithm 6 for a program.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Mapping

import sympy

from ..sets import ParamSet, parse_set, sym

#: Fast-memory capacity symbol (number of words that fit in cache/scratchpad).
S_SYMBOL: sympy.Symbol = sym("S")

#: Growth degree assigned to program parameters vs. the cache size when
#: extracting asymptotically dominant terms:  params ~ t**PARAM_DEGREE,
#: S ~ t**S_DEGREE with PARAM_DEGREE > S_DEGREE encodes  S = o(params).
PARAM_DEGREE = 4
S_DEGREE = 2


def growth_degree(term: sympy.Expr, param_names: set[str]) -> sympy.Rational:
    """Growth degree of a monomial (product) under params ~ t^4, S ~ t^2."""
    degree = sympy.Rational(0)
    for base, exponent in term.as_powers_dict().items():
        if not base.free_symbols and not isinstance(base, sympy.Symbol):
            continue
        if isinstance(base, sympy.Symbol):
            if base == S_SYMBOL:
                degree += S_DEGREE * exponent
            elif base.name in param_names:
                degree += PARAM_DEGREE * exponent
        else:
            # Composite base (e.g. (S + 1)**(1/2)): use the degree of its
            # fastest-growing term, times the exponent.
            degree += expression_degree(base, param_names) * exponent
    return degree


def expression_degree(expr: sympy.Expr, param_names: set[str]) -> sympy.Rational:
    """Growth degree of an arbitrary expression (max over its added terms)."""
    expr = expr.replace(sympy.floor, lambda x: x)
    expr = expr.replace(sympy.Max, lambda *args: sympy.Add(*args))
    terms = sympy.Add.make_args(sympy.expand(expr))
    degrees = [growth_degree(term, param_names) for term in terms]
    return max(degrees) if degrees else sympy.Rational(0)


def asymptotic_leading(expr: sympy.Expr, param_names: set[str]) -> sympy.Expr:
    """Keep only the asymptotically dominant term(s) of an expression.

    floor(x) is replaced by x and Max(...) by its dominant argument, matching
    the way the paper turns the complete formulae of Table 2 into the
    asymptotic ones.
    """
    expr = expr.replace(sympy.floor, lambda x: x)
    expr = expr.replace(
        sympy.Max,
        lambda *args: max(args, key=lambda a: expression_degree(a, param_names)),
    )
    expr = sympy.expand(sympy.powsimp(expr))
    return _leading_term(expr, param_names)


def _leading_term(expr: sympy.Expr, param_names: set[str]) -> sympy.Expr:
    expr = sympy.expand(expr)
    terms = sympy.Add.make_args(expr)
    if len(terms) == 1:
        return terms[0]
    best_degree = None
    best_terms: list[sympy.Expr] = []
    for term in terms:
        degree = growth_degree(term, param_names)
        if best_degree is None or degree > best_degree:
            best_degree = degree
            best_terms = [term]
        elif degree == best_degree:
            best_terms.append(term)
    return sympy.Add(*best_terms)


def clamp_at_zero(expr: sympy.Expr) -> sympy.Expr:
    """``max(0, expr)``, built exactly as the evaluated ``sympy.Max`` builds it.

    An evaluated ``Max`` of a symbolic argument searches for its sign
    (``_find_localzeros`` -> ``factor_terms``) on every clamp, and on the
    derivation's expressions that search never decides a sign the direct
    queries below leave open (``tests/core/test_clamp_oracle.py`` checks the
    suite and the fuzz corpus).  A number is folded by the evaluated ``Max``
    itself; a sign the assumptions decide directly picks the answer;
    anything else stays an unevaluated ``Max``, whose arguments sympy orders
    just as it orders the evaluated one's.
    """
    zero = sympy.Integer(0)
    if expr.is_number:
        return sympy.Max(zero, expr)
    if expr.is_nonnegative:
        return expr
    if expr.is_nonpositive:
        return zero
    return sympy.Max(zero, expr, evaluate=False)


def evaluate(expr: sympy.Expr, instance: Mapping[str, object]) -> float:
    """Numeric value of a bound expression at a parameter/cache-size instance."""
    substitutions = {sym(name): value for name, value in instance.items()}
    value = expr.subs(substitutions)
    return float(sympy.N(value))


#: Version tag of the JSON serialization schema below.
SERIALIZATION_SCHEMA = 1

#: Key order of :meth:`SubBound.to_dict` and :meth:`IOBoundResult.to_dict`: a
#: decoded payload laid out exactly so (as every stored entry and ``suite
#: --json`` document is) seeds the decoded result's encoding memo.
_SUB_BOUND_KEYS = ("expression", "smooth", "may_spill", "method", "statement", "depth", "notes")
_RESULT_KEYS = (
    "schema", "program_name", "parameters", "expression", "smooth", "asymptotic",
    "input_size", "total_flops", "sub_bounds", "log",
)


def expr_to_text(expr: sympy.Expr) -> str:
    """Serialize a sympy expression to its exact ``srepr`` form."""
    return sympy.srepr(sympy.Integer(expr) if isinstance(expr, int) else expr)


def expr_from_text(text: str) -> sympy.Expr:
    """Rebuild a sympy expression from its ``srepr`` form (exact inverse).

    The text is walked as a Python expression tree (``ast.parse``), never
    evaluated: only the srepr constructs below are accepted, and anything
    else raises ``ValueError`` — result documents may come from untrusted
    files (shared stores, ``cache import`` archives, downloaded suite dumps).
    Numeric literals that canonical sympy never leaves, but whose
    construction would stall the reader, are refused too (see :func:`_pow`
    and :data:`_MAX_FLOAT_PRECISION`).
    """
    if not isinstance(text, str):
        raise ValueError(f"refusing to deserialize a {type(text).__name__} as an expression")
    try:
        tree = ast.parse(text, mode="eval")
        return _decode(tree.body)
    except (SyntaxError, RecursionError, MemoryError) as error:
        raise ValueError(f"refusing to deserialize malformed expression: {error}") from None


#: Symbol assumptions an srepr text may carry (each with a ``True``/``False``).
_ASSUMPTIONS = frozenset({
    "integer", "positive", "negative", "nonnegative", "nonpositive", "real",
})

#: Bare names and ``S.<name>`` singletons that stand for sympy atoms.
_ATOMS = {"pi": sympy.pi, "E": sympy.E, "oo": sympy.oo}
_SINGLETONS = {
    name: getattr(sympy.S, name)
    for name in ("Half", "One", "Zero", "NegativeOne", "Infinity", "NegativeInfinity")
}

#: Binary precision of a double; a ``Float`` literal asking for more is
#: refused (none occurs in a derived bound, and mpmath would honour any size).
_MAX_FLOAT_PRECISION = 53


def _refuse(what: object) -> ValueError:
    return ValueError(
        f"refusing to deserialize expression containing {what!r} "
        "(not a known srepr construct)"
    )


def _has_numeric_factor(expr: sympy.Expr) -> bool:
    """Whether a product has a number other than 0 and ±1 (or a power of one)
    among its factors — raising those is what costs big-integer arithmetic."""

    def raisable(number: sympy.Expr) -> bool:
        return number.is_Number and abs(number) not in (0, 1)

    return any(
        raisable(factor) or (factor.is_Pow and raisable(factor.base))
        for factor in sympy.Mul.make_args(expr)
    )


def _pow(base: sympy.Expr, exponent: sympy.Expr) -> sympy.Expr:
    """Evaluated ``Pow``, refusing the forms that raise a number to a large
    power.

    Sympy evaluates a number raised to a rational power and distributes
    integer powers over products, so canonical output leaves a numeric factor
    (other than 0 and ±1) only under a numeric exponent in (-1, 1), as in
    ``sqrt(2)``.  Anything else is a hostile entry:
    ``Pow(Integer(10), Integer(10000000))`` is 35 bytes of text and seconds of
    big-integer arithmetic, and ``10**x * 10**(10000000 - x)`` gets there
    through ``Mul``'s merging of exponents.
    """
    if _has_numeric_factor(base) and not (
        exponent.is_Number and exponent.is_finite and abs(exponent) < 1
    ):
        raise ValueError(
            f"refusing to deserialize numeric power {sympy.srepr(base)} ** "
            f"{sympy.srepr(exponent)} (never produced by sympy)"
        )
    return sympy.Pow(base, exponent)


#: Expression heads: name -> (builder, arity or None for variadic).  Sums,
#: products and powers are built *evaluated*: srepr prints their args in print
#: order, and only evaluation restores sympy's storage order (and so ``==``).
#: ``Max``/``Min`` were stored already reduced, so they are rebuilt with
#: ``evaluate=False`` — re-reducing them is what made decoding slow.
_HEADS = {
    "Add": (sympy.Add, None),
    "Mul": (sympy.Mul, None),
    "Pow": (_pow, 2),
    "sqrt": (lambda arg: _pow(arg, sympy.S.Half), 1),
    "Max": (lambda *args: sympy.Max(*args, evaluate=False), None),
    "Min": (lambda *args: sympy.Min(*args, evaluate=False), None),
    "Abs": (sympy.Abs, 1),
    "floor": (sympy.floor, 1),
    "ceiling": (sympy.ceiling, 1),
}


def _int_literal(node: ast.expr) -> int:
    """An int literal, optionally negated (``3``, ``-3``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_int_literal(node.operand)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise _refuse(ast.unparse(node))


def _str_literal(node: ast.expr) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    raise _refuse(ast.unparse(node))


def _decode(node: ast.expr) -> sympy.Expr:
    if isinstance(node, ast.Call):
        return _decode_call(node)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_decode(node.operand)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sympy.Integer(node.value)
    if isinstance(node, ast.Name) and node.id in _ATOMS:
        return _ATOMS[node.id]
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "S"
        and node.attr in _SINGLETONS
    ):
        return _SINGLETONS[node.attr]
    raise _refuse(ast.unparse(node))


def _decode_call(node: ast.Call) -> sympy.Expr:
    head = node.func.id if isinstance(node.func, ast.Name) else ast.unparse(node.func)
    keywords = {}
    for keyword in node.keywords:
        if keyword.arg is None:  # ``**mapping``
            raise _refuse(ast.unparse(keyword))
        keywords[keyword.arg] = keyword.value
    args = node.args

    if head == "Symbol" and len(args) == 1:
        assumptions = {}
        for name, value in keywords.items():
            if name not in _ASSUMPTIONS:
                raise _refuse(name)
            if not (isinstance(value, ast.Constant) and type(value.value) is bool):
                raise _refuse(ast.unparse(value))
            assumptions[name] = value.value
        return sympy.Symbol(_str_literal(args[0]), **assumptions)
    if head == "Float" and len(args) == 1 and set(keywords) <= {"precision"}:
        precision = keywords.get("precision")
        if precision is None:
            return sympy.Float(_str_literal(args[0]))
        bits = _int_literal(precision)
        if not 0 < bits <= _MAX_FLOAT_PRECISION:
            raise ValueError(f"refusing to deserialize Float with precision={bits}")
        return sympy.Float(_str_literal(args[0]), precision=bits)
    if keywords:
        raise _refuse(f"{head}({', '.join(keywords)}=...)")
    if head == "Integer" and len(args) == 1:
        return sympy.Integer(_int_literal(args[0]))
    if head == "Rational" and len(args) in (1, 2):
        return sympy.Rational(*(_int_literal(arg) for arg in args))
    build, arity = _HEADS.get(head, (None, None))
    if build is None or (arity is not None and len(args) != arity):
        raise _refuse(head)
    return build(*(_decode(arg) for arg in args))


def _pset_to_pieces(domain: ParamSet) -> list[str]:
    """Serialize a ParamSet as one parser-compatible string per piece."""
    return [repr(ParamSet.from_basic(piece)) for piece in domain.pieces]


def _pset_from_pieces(pieces: list[str]) -> ParamSet | None:
    """Rebuild a ParamSet from per-piece strings (None when empty/unparseable).

    Empty sets carry no information for the decomposition lemma, and a piece
    the parser cannot read (none is produced by the current printers) makes
    the whole set unusable — both cases drop the entry rather than guess.
    """
    try:
        parsed = [parse_set(text) for text in pieces]
    except Exception:
        return None
    if not parsed:
        return None
    return reduce(ParamSet.union, parsed)


class _StoredMaySpill(Mapping):
    """A decoded sub-bound's may-spill map, parsed from its pieces on first use.

    Only the decomposition lemma reads may-spill sets, and a result-store hit
    never runs it, so set parsing is deferred until a read.  Statements whose
    pieces are empty or unparseable are dropped then, as
    :func:`_pset_from_pieces` decides.
    """

    __slots__ = ("_pieces", "_sets")

    def __init__(self, pieces: Mapping[str, list[str]]):
        self._pieces = pieces
        self._sets: dict[str, ParamSet] | None = None

    def _parsed(self) -> dict[str, ParamSet]:
        if self._sets is None:
            sets = {}
            for statement, texts in self._pieces.items():
                domain = _pset_from_pieces(texts)
                if domain is not None:
                    sets[statement] = domain
            self._sets = sets
        return self._sets

    def __getitem__(self, statement: str) -> ParamSet:
        return self._parsed()[statement]

    def __iter__(self):
        return iter(self._parsed())

    def __len__(self) -> int:
        return len(self._parsed())

    def __repr__(self) -> str:
        return repr(self._parsed())


@dataclass
class SubBound:
    """A lower bound for one sub-CDAG (one output of Alg. 4, Alg. 5 or Sec. 4.3).

    Attributes
    ----------
    expression:
        Complete bound (sympy), possibly containing ``floor`` and ``Max``.
    smooth:
        The same bound without ``floor``/``Max`` — still a valid lower bound
        (floors were only dropped in the safe direction) and easier to sum,
        compare and simplify.
    may_spill:
        Map from statement name to the may-spill vertex set of the sub-CDAG
        (Def. 4.1), used by the decomposition lemma to decide which bounds may
        be added together.  A decoded sub-bound parses it on first read.
    method:
        ``"kpartition"`` or ``"wavefront"``.
    statement:
        The DFG vertex the derivation was centred on.
    depth:
        Loop-parametrisation depth (0 means no parametrisation).
    """

    expression: sympy.Expr
    smooth: sympy.Expr
    may_spill: Mapping[str, ParamSet] = field(default_factory=dict)
    method: str = "kpartition"
    statement: str = ""
    depth: int = 0
    notes: str = ""

    def evaluate(self, instance: Mapping[str, object]) -> float:
        return evaluate(self.smooth, instance)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (sympy expressions via ``srepr``)."""
        return {
            "expression": expr_to_text(self.expression),
            "smooth": expr_to_text(self.smooth),
            "may_spill": {
                statement: _pset_to_pieces(domain)
                for statement, domain in self.may_spill.items()
            },
            "method": self.method,
            "statement": self.statement,
            "depth": self.depth,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubBound":
        may_spill = data.get("may_spill", {})
        if not isinstance(may_spill, Mapping):
            raise ValueError(f"may_spill must be a mapping, not {type(may_spill).__name__}")
        return cls(
            expression=expr_from_text(data["expression"]),
            smooth=expr_from_text(data["smooth"]),
            may_spill=_StoredMaySpill(may_spill),
            method=data.get("method", "kpartition"),
            statement=data.get("statement", ""),
            depth=int(data.get("depth", 0)),
            notes=data.get("notes", ""),
        )


@dataclass
class IOBoundResult:
    """Final result of the IOLB derivation for one program."""

    program_name: str
    parameters: tuple[str, ...]
    expression: sympy.Expr
    smooth: sympy.Expr
    asymptotic: sympy.Expr
    input_size: sympy.Expr
    total_flops: sympy.Expr
    sub_bounds: list[SubBound] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def oi_upper_bound(self) -> sympy.Expr:
        """Parametric upper bound on operational intensity: #ops / Q_low.

        The value is a full sympy expand/simplify over the derived bound, so
        it is memoised per instance (``__repr__`` calls it, and suites print
        a repr per kernel per run).  The cache is lazy instance state, not a
        dataclass field: it survives :meth:`from_dict` round-trips (any
        deserialized instance just computes once on first use) and never
        leaks into :meth:`to_dict` or equality.  Mutating ``total_flops``/``asymptotic`` after the first
        call would return the stale value — results are treated as immutable
        everywhere in the library.
        """
        cached = self.__dict__.get("_oi_upper_bound_cache")
        if cached is None:
            params = set(self.parameters)
            ratio = sympy.simplify(
                asymptotic_leading(self.total_flops, params) / self.asymptotic
            )
            cached = asymptotic_leading(sympy.expand(ratio), params | {"S"})
            self.__dict__["_oi_upper_bound_cache"] = cached
        return cached

    def evaluate(self, instance: Mapping[str, object]) -> float:
        """Numeric lower bound at a parameter/cache-size instance."""
        return evaluate(self.smooth, instance)

    def evaluate_oi_upper(self, instance: Mapping[str, object]) -> float:
        flops = evaluate(self.total_flops, instance)
        q_low = max(self.evaluate(instance), 1.0)
        return flops / q_low

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation of the full result.

        Sympy expressions are serialized with ``srepr`` so the round-trip is
        exact (including symbol assumptions, ``floor`` and ``Max``); may-spill
        sets are serialized piece-by-piece in the library's set syntax.

        The encoding is memoised on the instance as its JSON text, like
        :meth:`oi_upper_bound` (results are immutable), and :meth:`from_dict`
        seeds that memo from the payload it decoded, so a stored result is
        never re-printed.  Each call returns a fresh dict the caller may
        mutate.
        """
        text = self.__dict__.get("_encoded")
        if text is None:
            text = json.dumps({
                "schema": SERIALIZATION_SCHEMA,
                "program_name": self.program_name,
                "parameters": list(self.parameters),
                "expression": expr_to_text(self.expression),
                "smooth": expr_to_text(self.smooth),
                "asymptotic": expr_to_text(self.asymptotic),
                "input_size": expr_to_text(self.input_size),
                "total_flops": expr_to_text(self.total_flops),
                "sub_bounds": [bound.to_dict() for bound in self.sub_bounds],
                "log": list(self.log),
            })
            self.__dict__["_encoded"] = text
        return json.loads(text)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IOBoundResult":
        schema = data.get("schema", SERIALIZATION_SCHEMA)
        if schema != SERIALIZATION_SCHEMA:
            raise ValueError(
                f"unsupported IOBoundResult schema {schema!r} "
                f"(this library reads schema {SERIALIZATION_SCHEMA})"
            )
        result = cls(
            program_name=data["program_name"],
            parameters=tuple(data["parameters"]),
            expression=expr_from_text(data["expression"]),
            smooth=expr_from_text(data["smooth"]),
            asymptotic=expr_from_text(data["asymptotic"]),
            input_size=expr_from_text(data["input_size"]),
            total_flops=expr_from_text(data["total_flops"]),
            sub_bounds=[SubBound.from_dict(entry) for entry in data.get("sub_bounds", [])],
            log=list(data.get("log", [])),
        )
        # A payload laid out as to_dict writes it is what to_dict would
        # print again; one with defaulted keys is re-encoded on first use.
        if tuple(data) == _RESULT_KEYS and all(
            tuple(entry) == _SUB_BOUND_KEYS for entry in data["sub_bounds"]
        ):
            result.__dict__["_encoded"] = json.dumps(data)
        return result

    def __repr__(self) -> str:
        return (
            f"IOBoundResult({self.program_name!r}, Q_low ~ {self.asymptotic}, "
            f"OI_up ~ {self.oi_upper_bound()})"
        )
