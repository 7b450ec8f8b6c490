"""Campaign driver: fan fuzz cases through the scheduler, shrink, replay.

A *campaign* draws ``(seed, profile)`` cases from the deterministic generator
and runs every requested oracle on each case.  Cases are fanned through the
same :func:`~repro.analysis.scheduler.schedule_work` engine that powers
derivation plans and the tiling search — one group per seed, one work item
per group — so campaigns parallelise across seeds on any executor and stream
verdicts the moment each seed completes.  All of a seed's oracles run inside
one work item on purpose: they share the per-process DFG and reachability
caches, so the expensive symbolic closure of a case is paid once, not once
per oracle per worker.

Failures are post-processed on the requester side:

1. **Shrink** — greedy delta debugging over the program surgery operators of
   :mod:`~repro.fuzz.generator` (statement deletion, then dependence
   deletion, then dimension deletion), repeated to a fixed point while the
   oracle still fails, under an invocation budget.
2. **Corpus** — each failure is written as a self-contained JSON repro file:
   seed + full profile spec + oracle + the reduction op list + the observed
   divergence.  Anyone (CI, a bisecting developer, a later session) can
   re-materialise the exact minimized program from the entry alone.
3. **Replay** — :func:`replay_entry` regenerates the reduced program and
   re-runs the oracle: the CLI exits non-zero while the divergence still
   reproduces and zero once the underlying bug is fixed, which makes corpus
   entries usable as regression gates.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.plan import program_fingerprint
from repro.analysis.scheduler import WorkItem, schedule_work
from repro.ir.program import AffineProgram

from .generator import (
    FuzzProfile,
    case_program,
    delete_dependence,
    delete_dimension,
    delete_statement,
    profile_from_dict,
    profile_to_dict,
    random_program,
    resolve_profile,
)
from .oracles import ORACLES, OracleContext, OracleVerdict, oracle_names, run_oracle

#: Version of the corpus entry JSON layout.
CORPUS_SCHEMA = 1

#: ``kind`` tag of corpus entries (guards against replaying arbitrary JSON).
CORPUS_KIND = "repro-fuzz-crash"

#: Default cap on oracle invocations spent shrinking one failure.
DEFAULT_SHRINK_BUDGET = 128


@dataclass
class CampaignFailure:
    """One divergence: where it was found and its minimized reproduction."""

    seed: int
    profile: str
    oracle: str
    verdict: OracleVerdict
    reduction: list = field(default_factory=list)
    statements: list = field(default_factory=list)
    dependences: list = field(default_factory=list)
    fingerprint: str = ""
    corpus_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "oracle": self.oracle,
            "verdict": self.verdict.to_dict(),
            "reduction": self.reduction,
            "statements": self.statements,
            "dependences": self.dependences,
            "fingerprint": self.fingerprint,
            "corpus_path": self.corpus_path,
        }


@dataclass
class CampaignResult:
    """Everything one campaign did, JSON-serializable for ``--json``."""

    profile: FuzzProfile
    oracles: tuple[str, ...]
    seeds: list[int]
    completed: list[int]
    verdicts: list[dict]
    failures: list[CampaignFailure]
    checks: int
    elapsed: float
    stopped_early: bool

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "profile": profile_to_dict(self.profile),
            "oracles": list(self.oracles),
            "seeds": list(self.seeds),
            "completed": list(self.completed),
            "cases": len(self.completed),
            "checks": self.checks,
            "verdicts": list(self.verdicts),
            "failures": [failure.to_dict() for failure in self.failures],
            "ok": self.ok,
            "elapsed_s": round(self.elapsed, 3),
            "stopped_early": self.stopped_early,
        }


def _run_case(payload) -> list[OracleVerdict]:
    """Executor-side body of one campaign case (module-level: picklable)."""
    seed, profile, oracle_list = payload
    program = random_program(seed, profile)
    ctx = OracleContext(seed=seed, profile=profile)
    return [run_oracle(name, program, ctx) for name in oracle_list]


def run_campaign(
    seeds: Iterable[int],
    profile: "str | FuzzProfile" = "small",
    oracles: Sequence[str] | None = None,
    executor: str | None = None,
    n_jobs: int = 1,
    time_budget: float | None = None,
    corpus_dir: "str | Path | None" = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    log: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Run every requested oracle on every seed; shrink and record failures.

    ``time_budget`` (seconds) stops scheduling new results once exceeded —
    already-completed seeds are kept, the result is marked ``stopped_early``.
    ``corpus_dir`` enables crash-corpus writing; ``oracles=None`` runs every
    oracle in :data:`ORACLES`.  Unknown oracle names raise :class:`KeyError`
    before any work is scheduled.
    """
    prof = resolve_profile(profile)
    oracle_list = tuple(oracles) if oracles else oracle_names()
    for name in oracle_list:
        if name not in ORACLES:
            raise KeyError(f"unknown oracle {name!r}; available: {', '.join(ORACLES)}")
    seed_list = [int(seed) for seed in seeds]
    started = time.monotonic()
    verdicts: list[dict] = []
    raw_failures: list[tuple[int, OracleVerdict]] = []
    completed: list[int] = []
    checks = 0
    stopped_early = False

    groups = [[WorkItem((seed, prof, oracle_list))] for seed in seed_list]
    stream = schedule_work(groups, _run_case, executor=executor, n_jobs=n_jobs)
    try:
        for group_index, results in stream:
            seed = seed_list[group_index]
            completed.append(seed)
            for verdict in results[0]:
                checks += verdict.checks
                verdicts.append({"seed": seed, **verdict.to_dict()})
                if not verdict.ok:
                    raw_failures.append((seed, verdict))
            if log is not None:
                bad = [v.oracle for v in results[0] if not v.ok]
                status = f"FAIL({', '.join(bad)})" if bad else "ok"
                case_checks = sum(v.checks for v in results[0])
                log(
                    f"seed {seed:>4} [{prof.name}] {status}: "
                    f"{case_checks} checks in {len(results[0])} oracles"
                )
            if time_budget is not None and time.monotonic() - started > time_budget:
                stopped_early = True
                if log is not None:
                    remaining = len(seed_list) - len(completed)
                    log(
                        f"time budget of {time_budget}s exhausted; "
                        f"stopping with {remaining} seeds unvisited"
                    )
                break
    finally:
        stream.close()

    failures = []
    for seed, verdict in raw_failures:
        failures.append(
            _materialise_failure(
                seed, prof, verdict, corpus_dir, shrink, shrink_budget, log
            )
        )
    completed.sort()
    return CampaignResult(
        profile=prof,
        oracles=oracle_list,
        seeds=seed_list,
        completed=completed,
        verdicts=verdicts,
        failures=failures,
        checks=checks,
        elapsed=time.monotonic() - started,
        stopped_early=stopped_early,
    )


# ---------------------------------------------------------------------------
# shrinking


def shrink_case(
    program: AffineProgram,
    oracle: str,
    ctx: OracleContext,
    budget: int = DEFAULT_SHRINK_BUDGET,
) -> tuple[AffineProgram, list]:
    """Greedy delta debugging: delete while the oracle still fails.

    Passes run statement deletion first (the coarsest cut), then dependence
    deletion, then dimension deletion, and repeat to a fixed point.  Every
    accepted step is recorded as a reduction op replayable by
    :func:`~repro.fuzz.generator.apply_reduction`, so a corpus entry needs
    only ``(seed, profile, reduction)`` — never a serialized program.
    """
    spent = 0
    reduction: list = []

    def still_fails(candidate: AffineProgram) -> bool:
        nonlocal spent
        if spent >= budget:
            return False
        spent += 1
        verdict = run_oracle(oracle, candidate, ctx)
        return not verdict.ok and not verdict.skipped

    changed = True
    while changed and spent < budget:
        changed = False
        for name in sorted(program.statements):
            if len(program.statements) <= 1:
                break
            if name not in program.statements:
                continue
            try:
                candidate = delete_statement(program, name)
            except (KeyError, ValueError):
                continue
            if still_fails(candidate):
                program = candidate
                reduction.append(["statement", name])
                changed = True
        for label in [dep.label for dep in program.dependences]:
            try:
                candidate = delete_dependence(program, label)
            except (KeyError, ValueError):
                continue
            if still_fails(candidate):
                program = candidate
                reduction.append(["dependence", label])
                changed = True
        for name in sorted(program.statements):
            if name not in program.statements:
                continue
            for dim in list(program.statements[name].dims):
                if len(program.statements[name].dims) <= 1:
                    break
                candidate = delete_dimension(program, name, dim)
                if candidate is None:
                    continue
                if still_fails(candidate):
                    program = candidate
                    reduction.append(["dimension", name, dim])
                    changed = True
    return program, reduction


def _materialise_failure(
    seed: int,
    profile: FuzzProfile,
    verdict: OracleVerdict,
    corpus_dir: "str | Path | None",
    shrink: bool,
    shrink_budget: int,
    log: Callable[[str], None] | None,
) -> CampaignFailure:
    """Shrink one raw failure and (optionally) persist it to the corpus."""
    ctx = OracleContext(seed=seed, profile=profile)
    program = random_program(seed, profile)
    reduction: list = []
    reduced = program
    if shrink:
        reduced, reduction = shrink_case(program, verdict.oracle, ctx, shrink_budget)
        if reduction:
            minimized = run_oracle(verdict.oracle, reduced, ctx)
            if minimized.ok:
                # The shrunk program no longer fails (a flaky or
                # state-dependent divergence): keep the original reproduction.
                reduced, reduction = program, []
            else:
                verdict = minimized
    failure = CampaignFailure(
        seed=seed,
        profile=profile.name,
        oracle=verdict.oracle,
        verdict=verdict,
        reduction=reduction,
        statements=sorted(reduced.statements),
        dependences=[dep.label for dep in reduced.dependences],
        fingerprint=program_fingerprint(reduced),
    )
    if log is not None:
        log(
            f"seed {seed} [{profile.name}] {verdict.oracle}: shrunk "
            f"{len(program.statements)}→{len(reduced.statements)} statements, "
            f"{len(program.dependences)}→{len(reduced.dependences)} dependences"
        )
    if corpus_dir is not None:
        failure.corpus_path = str(write_corpus_entry(corpus_dir, failure, profile))
        if log is not None:
            log(f"corpus entry written: {failure.corpus_path}")
    return failure


# ---------------------------------------------------------------------------
# corpus + replay


def write_corpus_entry(
    corpus_dir: "str | Path", failure: CampaignFailure, profile: FuzzProfile
) -> Path:
    """Persist one failure as a self-contained, replayable JSON repro file."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{failure.oracle}-{profile.name}-{failure.seed}.json"
    entry = {
        "schema": CORPUS_SCHEMA,
        "kind": CORPUS_KIND,
        "seed": failure.seed,
        "profile": profile.name,
        "profile_spec": profile_to_dict(profile),
        "oracle": failure.oracle,
        "reduction": failure.reduction,
        "fingerprint": failure.fingerprint,
        "statements": failure.statements,
        "dependences": failure.dependences,
        "details": failure.verdict.details,
        "divergence": failure.verdict.divergence,
    }
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_corpus_entry(path: "str | Path") -> dict:
    """Read and validate a corpus entry; raises ``ValueError`` when malformed."""
    try:
        entry = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read corpus entry {path}: {exc}") from exc
    if not isinstance(entry, dict) or entry.get("kind") != CORPUS_KIND:
        raise ValueError(f"{path} is not a repro fuzz corpus entry")
    if entry.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"{path} has corpus schema {entry.get('schema')!r}; "
            f"this build reads schema {CORPUS_SCHEMA}"
        )
    for field_name in ("seed", "oracle"):
        if field_name not in entry:
            raise ValueError(f"{path} is missing the {field_name!r} field")
    return entry


@dataclass
class ReplayOutcome:
    """Result of re-running a corpus entry against the current code."""

    verdict: OracleVerdict
    fingerprint: str
    expected_fingerprint: str

    @property
    def reproduced(self) -> bool:
        return not self.verdict.ok and not self.verdict.skipped

    @property
    def fingerprint_matches(self) -> bool:
        return not self.expected_fingerprint or (
            self.fingerprint == self.expected_fingerprint
        )

    def to_dict(self) -> dict:
        return {
            "reproduced": self.reproduced,
            "verdict": self.verdict.to_dict(),
            "fingerprint": self.fingerprint,
            "expected_fingerprint": self.expected_fingerprint,
            "fingerprint_matches": self.fingerprint_matches,
        }


def replay_entry(entry: dict) -> ReplayOutcome:
    """Re-materialise a corpus entry's minimized program and re-run its oracle."""
    spec = entry.get("profile_spec")
    profile = (
        profile_from_dict(spec) if spec else resolve_profile(entry.get("profile", "small"))
    )
    program = case_program(int(entry["seed"]), profile, entry.get("reduction") or [])
    ctx = OracleContext(seed=int(entry["seed"]), profile=profile)
    verdict = run_oracle(entry["oracle"], program, ctx)
    return ReplayOutcome(
        verdict=verdict,
        fingerprint=program_fingerprint(program),
        expected_fingerprint=str(entry.get("fingerprint") or ""),
    )
