"""Differential oracles: what a fuzz case is checked *against*.

An oracle is a function ``(program, OracleContext) -> OracleVerdict`` that
compares two independent ways of computing the same fact and reports any
divergence.  Each built-in oracle encodes one soundness argument of the
system (see DESIGN.md, "Oracle soundness"):

``executors``
    One derivation, three executors.  The plan → execute → combine split
    promises byte-identical bounds regardless of how tasks are fanned out;
    the oracle derives under ``serial``, ``thread`` and ``process`` and
    compares the canonical JSON of the results byte for byte.
``backends``
    The ``repro.rel`` reachability decision procedure against brute force.
    The symbolic validator answers the Cor. 6.3 wavefront hypothesis for
    every statement the derivation pipeline would actually query (chain +
    broadcast pattern present — closures for never-asked questions would
    dominate the campaign without guarding any bound), and every
    ``holds=True`` certificate is confirmed by graph search on tiny
    expanded CDAGs — a symbolic "yes" that a concrete instance refutes is a
    false accept, i.e. a wavefront bound admitted on a false hypothesis.
``store``
    Cold vs warm ``BoundStore``.  A warm re-analysis must be served entirely
    from the store (no misses) and reproduce the cold bound byte for byte —
    persistence must never change a bound.
``sandwich``
    Lower bound vs simulated upper bound (the PR 6 tightness sandwich).  For
    every strategy subset (kpartition only / wavefront only / both), the
    evaluated parametric lower bound at a tiny instance must not exceed the
    load count of a *legal* simulated schedule at the same cache size — a
    violation is a proof of unsoundness, since any simulated schedule is an
    upper bound on optimal I/O.  Belady ≤ LRU is checked as a freebie.
``counting``
    Symbolic counting vs brute-force enumeration.  ``card`` over each
    statement domain, ``input_size`` and ``total_flops`` are evaluated at
    tiny instances and compared with exhaustive CDAG expansion — the
    differential that caught a real `sets/counting.py` miscount.

:data:`ORACLES` is the fixed table of the five, by name; :func:`run_oracle`
wraps execution so that an unexpected exception inside the system under test
is itself reported as a divergence (``kind="crash"``) instead of killing the
campaign.
"""

from __future__ import annotations

import json
import tempfile
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.analysis import AnalysisConfig, Analyzer, BoundStore
from repro.analysis.plan import dfg_for
from repro.core.bounds import evaluate
from repro.core.wavefront import (
    _validate_reachability_concrete,
    _validate_reachability_symbolic,
    structural_chain,
)
from repro.ir.cdag import CDAG
from repro.ir.program import AffineProgram
from repro.pebble import lexicographic_schedule, simulate_schedule
from repro.sets.counting import CountingError, card

from .generator import FuzzProfile, resolve_profile

#: Numeric slack for float comparisons of exact integer quantities.
_EPS = 1e-9

#: Executors every case is derived under by the ``executors`` oracle.
EXECUTOR_SET = ("serial", "thread", "process")


@dataclass
class OracleContext:
    """Per-case inputs shared by every oracle."""

    seed: int
    profile: FuzzProfile

    @classmethod
    def for_case(cls, seed: int, profile: "str | FuzzProfile") -> "OracleContext":
        return cls(seed=seed, profile=resolve_profile(profile))


@dataclass
class OracleVerdict:
    """Outcome of one oracle on one program.

    ``ok`` is the headline: True when no divergence was observed.  A skipped
    oracle (missing optional dependency) reports ``ok=True, skipped=True`` so
    campaigns stay green without hiding the gap.  ``divergence`` is a
    JSON-able payload with enough detail to understand — and replay — the
    failure.
    """

    oracle: str
    ok: bool
    skipped: bool = False
    details: str = ""
    divergence: dict | None = None
    checks: int = 0

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "ok": self.ok,
            "skipped": self.skipped,
            "details": self.details,
            "divergence": self.divergence,
            "checks": self.checks,
        }


Oracle = Callable[[AffineProgram, OracleContext], OracleVerdict]


def oracle_names() -> tuple[str, ...]:
    """The oracle names, sorted (the keys of :data:`ORACLES`)."""
    return tuple(ORACLES)


def run_oracle(name: str, program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Run one oracle, converting crashes of the system under test into verdicts."""
    oracle = ORACLES[name]
    try:
        return oracle(program, ctx)
    except Exception as exc:  # noqa: BLE001 — a fuzzer must survive any SUT crash
        return OracleVerdict(
            oracle=name,
            ok=False,
            details=f"oracle crashed: {type(exc).__name__}: {exc}",
            divergence={
                "kind": "crash",
                "error": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=8),
            },
        )


# ---------------------------------------------------------------------------
# helpers


def _result_bytes(result) -> str:
    """Canonical byte representation of an IOBoundResult for equality checks."""
    return json.dumps(result.to_dict(), sort_keys=True)


def _pipeline_config() -> AnalysisConfig:
    """Config for oracles that exercise the *pipeline*, not the wavefront math.

    ``max_depth=0`` keeps derivations kpartition-only: the expensive part of
    a random-program derivation is the symbolic transitive-closure check, and
    executor/store determinism is independent of which strategies ran.
    """
    return AnalysisConfig(max_depth=0)


def _sandwich_capacity(cdag: CDAG) -> int:
    """A cache size every operation of the CDAG fits in (operands + result)."""
    indegree = max((len(cdag.preds[i]) for i in cdag.compute), default=0)
    return max(4, indegree + 2)


# ---------------------------------------------------------------------------
# built-in oracles


def oracle_executors(program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Bounds must be byte-identical across serial/thread/process executors."""
    config = _pipeline_config()
    docs: dict[str, str] = {}
    for name in EXECUTOR_SET:
        docs[name] = _result_bytes(
            Analyzer(config).analyze(program, executor=name, n_jobs=2)
        )
    reference = docs[EXECUTOR_SET[0]]
    for name, doc in docs.items():
        if doc != reference:
            return OracleVerdict(
                oracle="executors",
                ok=False,
                details=f"{name} executor produced a different bound than serial",
                divergence={
                    "kind": "executor-mismatch",
                    "executor": name,
                    "serial": reference,
                    "other": doc,
                },
                checks=len(docs),
            )
    return OracleVerdict(
        oracle="executors",
        ok=True,
        details=f"byte-identical across {', '.join(EXECUTOR_SET)}",
        checks=len(docs),
    )


def oracle_store(program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Cold vs warm store: warm run is all hits and byte-identical."""
    config = _pipeline_config()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as root:
        cold_store = BoundStore(root)
        cold = Analyzer(config, store=cold_store).analyze(program)
        warm_store = BoundStore(root)
        warm = Analyzer(config, store=warm_store).analyze(program)
        cold_doc, warm_doc = _result_bytes(cold), _result_bytes(warm)
        if warm_doc != cold_doc:
            return OracleVerdict(
                oracle="store",
                ok=False,
                details="warm store returned a different bound than the cold run",
                divergence={
                    "kind": "store-mismatch",
                    "cold": cold_doc,
                    "warm": warm_doc,
                },
                checks=2,
            )
        if warm_store.hits < 1 or warm_store.misses > 0:
            return OracleVerdict(
                oracle="store",
                ok=False,
                details=(
                    "warm run was not served from the store "
                    f"(hits={warm_store.hits}, misses={warm_store.misses})"
                ),
                divergence={
                    "kind": "store-not-warm",
                    "hits": warm_store.hits,
                    "misses": warm_store.misses,
                },
                checks=2,
            )
    return OracleVerdict(
        oracle="store",
        ok=True,
        details="warm rerun served from store, byte-identical",
        checks=2,
    )


def oracle_backends(program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Confirm every symbolic reachability accept by concrete graph search.

    The name predates the single relation engine; it stays ``backends``
    because perf traces (``fuzz.oracle.backends``) and campaign reports key
    on it.
    """
    dfg = dfg_for(program)
    checks = 0
    queried = 0
    for name in program.statements:
        # Only the queries the derivation itself makes: a statement without
        # the structural pattern never pays for a symbolic closure.
        if structural_chain(dfg, name, 1) is None:
            continue
        queried += 1
        checks += 1
        if not _validate_reachability_symbolic(dfg, name, 1).holds:
            continue
        for instance in ctx.profile.instance_dicts():
            checks += 1
            if not _validate_reachability_concrete(dfg, name, 1, instance):
                return OracleVerdict(
                    oracle="backends",
                    ok=False,
                    details=(
                        f"symbolic validator certified reachability of {name!r} "
                        f"but the concrete CDAG at {instance} refutes it"
                    ),
                    divergence={
                        "kind": "false-accept",
                        "statement": name,
                        "instance": instance,
                    },
                    checks=checks,
                )
    return OracleVerdict(
        oracle="backends",
        ok=True,
        details=(
            f"reachability confirmed on {queried}/{len(program.statements)} "
            f"queried statements"
        ),
        checks=checks,
    )


def oracle_sandwich(program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Certified lower bounds never exceed a simulated legal schedule's loads."""
    variants = {
        "kpartition": ("kpartition",),
        "wavefront": ("wavefront",),
        "both": ("kpartition", "wavefront"),
    }
    results = {
        name: Analyzer(AnalysisConfig(max_depth=1, strategies=strategies)).analyze(program)
        for name, strategies in variants.items()
    }
    checks = 0
    instance = ctx.profile.instance_dicts()[0]
    cdag = CDAG.expand(program, instance)
    capacity = _sandwich_capacity(cdag)
    schedule = lexicographic_schedule(cdag, warn=False)
    loads = {
        policy: simulate_schedule(cdag, list(schedule), capacity, policy=policy).loads
        for policy in ("lru", "opt")
    }
    if loads["opt"] > loads["lru"]:
        return OracleVerdict(
            oracle="sandwich",
            ok=False,
            details="Belady simulation loaded more than LRU on the same schedule",
            divergence={
                "kind": "policy-inversion",
                "instance": instance,
                "capacity": capacity,
                "loads": loads,
            },
            checks=1,
        )
    upper = min(loads.values())
    for name, result in results.items():
        checks += 1
        bound = result.evaluate({**instance, "S": capacity})
        if bound > upper + _EPS:
            return OracleVerdict(
                oracle="sandwich",
                ok=False,
                details=(
                    f"strategy set {name!r} certified a lower bound of {bound} "
                    f"above the simulated upper bound {upper}"
                ),
                divergence={
                    "kind": "sandwich-violation",
                    "strategies": list(variants[name]),
                    "instance": instance,
                    "capacity": capacity,
                    "lower_bound": bound,
                    "upper_bound": upper,
                    "loads": loads,
                },
                checks=checks,
            )
    return OracleVerdict(
        oracle="sandwich",
        ok=True,
        details=f"lower ≤ simulated upper for {len(results)} strategy sets",
        checks=checks,
    )


def _symbolic_statement_count(program: AffineProgram, statement: str, instance) -> float:
    """Evaluated symbolic cardinality of one statement domain.

    Kept as a module-level seam on purpose: the planted-bug regression test
    monkeypatches this to inject a miscount and prove the fuzzer catches,
    shrinks and replays a real divergence.
    """
    return evaluate(card(program.statements[statement].domain), instance)


def oracle_counting(program: AffineProgram, ctx: OracleContext) -> OracleVerdict:
    """Symbolic card/input_size/total_flops vs brute-force CDAG enumeration."""
    checks = 0
    for instance in ctx.profile.instance_dicts():
        cdag = CDAG.expand(program, instance)
        for name, statement in program.statements.items():
            try:
                symbolic = _symbolic_statement_count(program, name, instance)
            except CountingError:
                continue
            checks += 1
            enumerated = len(cdag.statement_vertices(name))
            if abs(symbolic - enumerated) > 0.5:
                return OracleVerdict(
                    oracle="counting",
                    ok=False,
                    details=(
                        f"card({name!r}) at {instance} is {symbolic} symbolically "
                        f"but {enumerated} by enumeration"
                    ),
                    divergence={
                        "kind": "count-mismatch",
                        "what": "statement-domain",
                        "statement": name,
                        "instance": instance,
                        "symbolic": symbolic,
                        "enumerated": enumerated,
                    },
                    checks=checks,
                )
        aggregates = (
            ("input-size", program.input_size(), len(cdag.inputs)),
            ("total-flops", program.total_flops(), cdag.flops),
        )
        for what, expr, enumerated in aggregates:
            checks += 1
            symbolic = evaluate(expr, instance)
            if abs(symbolic - enumerated) > 0.5:
                return OracleVerdict(
                    oracle="counting",
                    ok=False,
                    details=(
                        f"{what} at {instance} is {symbolic} symbolically "
                        f"but {enumerated} by enumeration"
                    ),
                    divergence={
                        "kind": "count-mismatch",
                        "what": what,
                        "instance": instance,
                        "symbolic": symbolic,
                        "enumerated": enumerated,
                    },
                    checks=checks,
                )
    return OracleVerdict(
        oracle="counting",
        ok=True,
        details=f"{checks} counts match enumeration",
        checks=checks,
    )


#: The built-in oracles by name, in sorted order.  A new differential is a
#: function above plus an entry here.
ORACLES: dict[str, Oracle] = {
    "backends": oracle_backends,
    "counting": oracle_counting,
    "executors": oracle_executors,
    "sandwich": oracle_sandwich,
    "store": oracle_store,
}
