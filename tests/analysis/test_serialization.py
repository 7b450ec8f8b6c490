"""JSON serialization: exact round-trips of results, documents and caches.

The structural expression decoder (``expr_from_text``) is checked against the
``sympify``-based decoder it replaced, kept here as the reference.
"""

import json
import random
import re
import time

import pytest
import sympy

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    load_results,
    program_fingerprint,
    result_key,
    results_from_document,
    results_to_document,
    save_results,
)
from repro.core import IOBoundResult
from repro.core import bounds
from repro.core.bounds import SubBound, expr_from_text
from repro.polybench import get_kernel


def _analyze(name, **config_kwargs):
    spec = get_kernel(name)
    config_kwargs.setdefault("max_depth", spec.max_depth)
    return Analyzer(AnalysisConfig(**config_kwargs)).analyze(spec.program)


class TestResultRoundTrip:
    def test_gemm_round_trip_preserves_expressions(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert reloaded.expression == result.expression
        assert reloaded.smooth == result.smooth
        assert reloaded.asymptotic == result.asymptotic
        assert reloaded.input_size == result.input_size
        assert reloaded.total_flops == result.total_flops
        assert reloaded.parameters == result.parameters
        assert reloaded.log == result.log

    def test_round_trip_preserves_sub_bounds_and_may_spill(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        assert len(reloaded.sub_bounds) == len(result.sub_bounds)
        for original, loaded in zip(result.sub_bounds, reloaded.sub_bounds):
            assert loaded.expression == original.expression
            assert loaded.smooth == original.smooth
            assert loaded.method == original.method
            assert loaded.statement == original.statement
            assert loaded.depth == original.depth
            assert set(loaded.may_spill) == {
                s for s, d in original.may_spill.items() if d.pieces
            }
            for statement, domain in loaded.may_spill.items():
                assert repr(domain) == repr(original.may_spill[statement])

    def test_wavefront_result_round_trip(self):
        result = _analyze("durbin")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        assert reloaded.asymptotic == result.asymptotic
        assert {b.method for b in reloaded.sub_bounds} == {
            b.method for b in result.sub_bounds
        }

    def test_reloaded_result_still_evaluates(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        instance = {"Ni": 40, "Nj": 40, "Nk": 40, "S": 64}
        assert reloaded.evaluate(instance) == result.evaluate(instance)
        assert sympy.simplify(reloaded.oi_upper_bound() - result.oi_upper_bound()) == 0

    def test_malicious_expression_rejected(self):
        """Deserialization must not eval arbitrary code from a document."""
        data = _analyze("gemm").to_dict()
        data["asymptotic"] = "__import__('os').system('true')"
        try:
            IOBoundResult.from_dict(data)
        except ValueError as error:
            assert "refusing" in str(error)
        else:
            raise AssertionError("expected malicious payload to be rejected")

    def test_schema_mismatch_rejected(self):
        data = _analyze("gemm").to_dict()
        data["schema"] = 999
        try:
            IOBoundResult.from_dict(data)
        except ValueError as error:
            assert "schema" in str(error)
        else:
            raise AssertionError("expected a schema ValueError")


class TestDocuments:
    def test_document_round_trip(self, tmp_path):
        results = [_analyze("gemm"), _analyze("atax")]
        path = save_results(results, tmp_path / "bounds.json")
        reloaded = load_results(path)
        assert sorted(reloaded) == ["atax", "gemm"]
        assert reloaded["gemm"].asymptotic == results[0].asymptotic
        assert reloaded["atax"].smooth == results[1].smooth

    def test_document_schema_guard(self):
        document = results_to_document([_analyze("gemm")])
        document["schema"] = -1
        try:
            results_from_document(document)
        except ValueError as error:
            assert "schema" in str(error)
        else:
            raise AssertionError("expected a schema ValueError")


class TestFingerprintAndCache:
    def test_fingerprint_is_stable_and_discriminating(self):
        gemm = get_kernel("gemm").program
        atax = get_kernel("atax").program
        assert program_fingerprint(gemm) == program_fingerprint(gemm)
        assert program_fingerprint(gemm) != program_fingerprint(atax)

    def test_disk_cache_hit_returns_equal_bound(self, tmp_path):
        spec = get_kernel("gemm")
        analyzer = Analyzer(AnalysisConfig(max_depth=0), store=tmp_path)
        first = analyzer.analyze(spec.program)
        assert list(tmp_path.glob("objects/*/*.json"))
        second = analyzer.analyze(spec.program)
        assert second.smooth == first.smooth
        assert second.asymptotic == first.asymptotic

    def test_cache_key_depends_on_config(self):
        program = get_kernel("gemm").program
        a = result_key(program, AnalysisConfig(max_depth=0))
        b = result_key(program, AnalysisConfig(max_depth=0, gamma=0.5))
        assert a != b

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = get_kernel("gemm")
        analyzer = Analyzer(AnalysisConfig(max_depth=0), store=tmp_path)
        fresh = analyzer.analyze(spec.program)
        (entry,) = (
            p for p in tmp_path.glob("objects/*/*.json") if not p.stem.endswith("-task")
        )
        entry.write_text("{ not json")
        again = analyzer.analyze(spec.program)
        assert again.smooth == fresh.smooth


# -- the structural decoder against the sympify reference ---------------------------

_STRING_LITERAL = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ALLOWED_SREPR_NAMES = frozenset({
    "Add", "Mul", "Pow", "Symbol", "Integer", "Rational", "Float",
    "Max", "Min", "Abs", "floor", "ceiling", "sqrt",
    "integer", "positive", "negative", "nonnegative", "nonpositive",
    "real", "precision", "True", "False",
    "S", "Half", "One", "Zero", "NegativeOne", "pi", "E",
    "oo", "Infinity", "NegativeInfinity",
})


def reference_expr_from_text(text: str) -> sympy.Expr:
    """The previous decoder: identifier allowlist pre-scan, then ``sympify``."""
    stripped = _STRING_LITERAL.sub("''", text)
    for name in _IDENTIFIER.findall(stripped):
        if name not in _ALLOWED_SREPR_NAMES:
            raise ValueError(f"refusing to deserialize expression containing {name!r}")
    return sympy.sympify(text)


_SYMBOLS = [sympy.Symbol(name, integer=True) for name in ("N", "M", "K", "S")] + [
    sympy.Symbol("P", integer=True, positive=True),
    sympy.Symbol("T", positive=True),
]
_EXPONENTS = [2, 3, -1, -2, sympy.Rational(1, 2), sympy.Rational(-1, 2), sympy.Rational(3, 2)]


def _random_tree(rng: random.Random, depth: int, root: bool = True) -> sympy.Expr:
    """A random bound-like expression over the srepr heads of derived bounds."""
    if depth == 0 or (not root and rng.random() < 0.2):
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(_SYMBOLS)
        if kind == 1:
            return sympy.Integer(rng.randint(-4, 9))
        return sympy.Rational(rng.randint(-7, 7), rng.randint(1, 6))
    head = rng.choice(["Add", "Mul", "Pow", "Max", "Min", "floor", "ceiling", "sqrt"])
    if head in ("Add", "Mul", "Max", "Min"):
        args = [_random_tree(rng, depth - 1, False) for _ in range(rng.randint(2, 3))]
        return getattr(sympy, head)(*args)
    if head == "Pow":
        return sympy.Pow(_random_tree(rng, depth - 1, False), rng.choice(_EXPONENTS))
    return getattr(sympy, head)(_random_tree(rng, depth - 1, False))


def _battery() -> list[str]:
    """~200 fixed-seed random trees, as srepr texts (complex results skipped)."""
    texts = []
    for seed in range(240):
        rng = random.Random(seed)
        try:
            tree = _random_tree(rng, rng.randint(1, 4))
        except ValueError:  # Max/Min of a complex argument
            continue
        if tree.has(sympy.I, sympy.zoo, sympy.nan):
            continue
        texts.append(sympy.srepr(tree))
    return texts


def _result_texts(result: IOBoundResult) -> list[str]:
    data = result.to_dict()
    texts = [data[k] for k in ("expression", "smooth", "asymptotic", "input_size", "total_flops")]
    for bound in data["sub_bounds"]:
        texts += [bound["expression"], bound["smooth"]]
    return texts


def _assert_decodes_like_reference(texts: list[str]) -> None:
    for text in sorted(set(texts)):
        decoded = expr_from_text(text)
        assert decoded == reference_expr_from_text(text), text
        assert sympy.srepr(decoded) == text


class TestStructuralDecoder:
    def test_random_battery_matches_reference(self):
        texts = _battery()
        assert len(texts) >= 200
        _assert_decodes_like_reference(texts)

    def test_golden_results_match_reference(self, cold_suite):
        texts = [t for a in cold_suite.analyses for t in _result_texts(a.result)]
        _assert_decodes_like_reference(texts)

    @pytest.mark.parametrize("text", [
        "S.Half", "oo", "-oo", "S.NegativeInfinity", "E",
        "Integer(-3)", "Rational(-1, 2)", "Float('1.5', precision=53)",
        "Symbol('x', real=True, nonnegative=False)",
        "Max(Symbol('N', integer=True), Integer(2))",
    ])
    def test_named_atoms_and_literals_match_reference(self, text):
        assert expr_from_text(text) == reference_expr_from_text(text)

    @pytest.mark.parametrize("text", [
        "Symbol.__class__('x')",
        "Symbol('x').__dict__",
        "__import__('os').system('true')",
        "__builtins__",
        "lambda: Integer(1)",
        "Symbol('x')[0]",
        "Add(**{'evaluate': False})",
        "Add(*[Integer(1)])",
        "Symbol('x', commutative=False)",
        "Symbol('x', integer=1)",
        "Symbol('x', integer='yes')",
        "Integer(1, evaluate=False)",
        "Tuple(Integer(1))",
        "exp(Integer(1))",
        "Integer(True)",
        "Integer('1')",
        "Add(Integer(1), True)",
        "Integer(1) + Integer(2)",
        "Float(1.5)",
        "S.__class__",
        "(" * 300 + "Integer(1)" + ")" * 300,
        "Integer(",
    ])
    def test_non_srepr_input_rejected(self, text):
        with pytest.raises(ValueError, match="refusing"):
            expr_from_text(text)


#: Entries of a few dozen bytes that took seconds to decode through sympify:
#: a number raised to a huge power, and Floats of unbounded precision.
HOSTILE = [
    "Pow(Integer(10), Integer(10000000))",
    "Pow(Mul(Integer(10), Symbol('N', integer=True)), Integer(10000000))",
    "Pow(Pow(Integer(10), Rational(1, 2)), Integer(20000000))",
    "Mul(Pow(Integer(10), Symbol('x')), Pow(Integer(10), Add(Integer(10000000), Symbol('y'))))",
    "Mul(Float('1.5', precision=10000000), Float('2.5', precision=10000000))",
]


class TestHostileEntries:
    @pytest.mark.parametrize("text", HOSTILE)
    def test_rejected_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="refusing"):
            expr_from_text(text)
        assert time.perf_counter() - start < 1.0

    def test_canonical_numeric_powers_still_decode(self):
        for text in (
            "Pow(Integer(2), Rational(1, 2))",
            "Mul(Rational(1, 3), Pow(Integer(3), Rational(1, 2)))",
            "Pow(Mul(Integer(-1), Symbol('N', integer=True)), Rational(3, 2))",
            "Pow(Add(Integer(1), Pow(Integer(2), Rational(1, 2))), Integer(-1))",
            "Pow(Symbol('N', integer=True), Integer(10000000))",
        ):
            assert sympy.srepr(expr_from_text(text)) == text

    @pytest.mark.parametrize("text", HOSTILE)
    def test_planted_store_entry_is_a_miss(self, tmp_path, text):
        spec = get_kernel("gemm")
        store = BoundStore(tmp_path)
        analyzer = Analyzer(AnalysisConfig(max_depth=0), store=store)
        analyzer.analyze(spec.program)
        key = result_key(spec.program, analyzer.config)
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["result"]["asymptotic"] = text
        path.write_text(json.dumps(entry))
        start = time.perf_counter()
        assert store.get(key) is None
        assert time.perf_counter() - start < 1.0


class TestLazyMaySpill:
    def test_sets_are_parsed_on_first_read(self, monkeypatch):
        data = _analyze("gemm").to_dict()
        calls = []
        parse_set = bounds.parse_set
        monkeypatch.setattr(bounds, "parse_set", lambda text: calls.append(text) or parse_set(text))
        reloaded = IOBoundResult.from_dict(data)
        assert calls == []
        # Encoding a decoded result reads the memo seeded at decode: no parse.
        assert reloaded.to_dict() == data
        assert calls == []
        assert any(len(bound.may_spill) for bound in reloaded.sub_bounds)
        assert calls

    def test_unparseable_or_empty_pieces_drop_the_statement(self):
        expression = "Symbol('N', integer=True)"
        bound = SubBound.from_dict({
            "expression": expression,
            "smooth": expression,
            "may_spill": {
                "A": ["[N] -> { A[i] : 0 <= i < N }"],
                "B": ["not a set"],
                "C": [],
            },
        })
        assert list(bound.may_spill) == ["A"]
        assert bound.to_dict()["may_spill"].keys() == {"A"}

    def test_non_mapping_may_spill_is_rejected(self):
        expression = "Integer(1)"
        with pytest.raises(ValueError, match="may_spill"):
            SubBound.from_dict({"expression": expression, "smooth": expression, "may_spill": []})


class TestEncodingMemo:
    def test_mutating_a_returned_dict_does_not_change_the_next(self):
        derived = _analyze("gemm")
        for result in (derived, IOBoundResult.from_dict(derived.to_dict())):
            first = result.to_dict()
            expected = json.loads(json.dumps(first))
            first["program_name"] = "mutated"
            first["log"].append("mutated")
            first["sub_bounds"][0]["may_spill"].clear()
            del first["sub_bounds"][1:]
            assert result.to_dict() == expected

    def test_seeded_memo_equals_a_fresh_encoding(self, cold_suite):
        """For every golden kernel, the encoding a decoded result keeps from
        its payload is byte for byte what encoding its fields gives."""
        for analysis in cold_suite.analyses:
            text = json.dumps(analysis.result.to_dict())
            reloaded = IOBoundResult.from_dict(json.loads(text))
            assert reloaded.__dict__["_encoded"] == text, analysis.spec.name
            del reloaded.__dict__["_encoded"]
            assert json.dumps(reloaded.to_dict()) == text, analysis.spec.name

    def test_payload_with_defaulted_keys_is_encoded_afresh(self):
        data = _analyze("gemm").to_dict()
        del data["schema"]
        del data["sub_bounds"][0]["notes"]
        reloaded = IOBoundResult.from_dict(data)
        assert "_encoded" not in reloaded.__dict__
        encoded = reloaded.to_dict()
        assert encoded["schema"] == bounds.SERIALIZATION_SCHEMA
        assert encoded["sub_bounds"][0]["notes"] == ""
