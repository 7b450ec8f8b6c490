"""Derivation planning: the *what* of Algorithm 6 as an explicit task graph.

Algorithm 6 is embarrassingly parallel on the inside: every
(statement x strategy x depth) sub-CDAG derivation is independent of every
other one right up to the decomposition-lemma combination step.  This module
makes that structure explicit.  A derivation is first *planned* — each
configured strategy (:data:`~repro.analysis.strategies.STRATEGIES`) turns the
program's DFG into a list of :class:`DerivationTask` coordinates — and only
then *executed*, task by task, over a pluggable
:class:`~repro.analysis.executor.Executor` (serial, thread pool, or process
pool; see :mod:`repro.analysis.executor`).

Determinism rule
----------------
Task results are always combined in **plan order** (the order
:meth:`DerivationPlan.tasks` lists them), never in completion order.  The
final :class:`~repro.core.bounds.IOBoundResult` — its ``sub_bounds`` list,
its ``log``, and hence its serialized bytes — is therefore identical across
the serial, thread and process executors, and across any scheduling of the
workers.

Task fingerprints
-----------------
Every task has a stable fingerprint derived from
:func:`program_fingerprint` + the task coordinates + the slice of the
configuration that can influence *that task's* result (a strategy narrows
this via ``task_signature``; e.g. a wavefront task does not key on
``gamma``).  The fingerprint keys task-level entries in the
:class:`~repro.analysis.store.BoundStore`, so a crashed or config-tweaked
run (say, ``max_depth`` raised from 1 to 2) reuses every finished sub-bound
instead of starting over.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .. import perf
from ..core.bounds import SubBound
from ..ir import AffineProgram, DFG
from .config import AnalysisConfig
from .store import DERIVATION_VERSION


def program_fingerprint(program: AffineProgram) -> str:
    """Stable hex fingerprint of an affine program's mathematical content.

    The fingerprint is built from a canonical textual description (name,
    parameters, array/statement domains, dependence functions) rather than
    from pickled bytes, so it is insensitive to object identity and to the
    order in which arrays, statements or dependences were declared.
    """
    lines = [f"program {program.name}", "params " + " ".join(program.params)]
    for name in sorted(program.arrays):
        array = program.arrays[name]
        lines.append(
            f"array {name} input={array.is_input} output={array.is_output} "
            f"domain={array.domain!r}"
        )
    for name in sorted(program.statements):
        statement = program.statements[name]
        lines.append(f"statement {name} flops={statement.flops} domain={statement.domain!r}")
    for dep in sorted(
        program.dependences,
        key=lambda d: (d.sink, d.source, repr(d.function.exprs), repr(d.domain)),
    ):
        lines.append(
            f"dep {dep.source}->{dep.sink} fn={dep.function.exprs!r} domain={dep.domain!r}"
        )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


# -- per-process program caches ----------------------------------------------


class ProgramCache:
    """A bounded, thread-safe, per-process LRU of objects built from a program.

    Keyed by the program fingerprint plus any extra hashable key parts, which
    ``build(program, *extra)`` receives too.  Callers that already hold the
    fingerprint pass it along so a lookup never re-hashes the program.  Two
    threads missing the same key may both build it; the last one wins.
    """

    def __init__(self, build: Callable[..., Any], limit: int = 8):
        self._build = build
        self._limit = limit
        self._lock = threading.Lock()
        perf.renew_lock_at_fork(self)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()

    def get(self, program: AffineProgram, fingerprint: str | None = None, *extra) -> Any:
        if fingerprint is None:
            fingerprint = program_fingerprint(program)
        key = (fingerprint, *extra)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = self._build(program, *extra)
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self._limit:
                self._entries.popitem(last=False)
        return value


_DFGS = ProgramCache(DFG.from_program)


def dfg_for(program: AffineProgram, fingerprint: str | None = None) -> DFG:
    """Build (or reuse) the DFG of a program, keyed by its fingerprint.

    Both the planner and every executor's task entry point funnel through
    here, so one process builds a program's DFG — and the relation caches
    that accumulate on it — once, whether it is planning, executing
    serially, or serving a worker pool.  Bounded so a long-lived service
    cannot leak programs.
    """
    return _DFGS.get(program, fingerprint)


@dataclass(frozen=True)
class DerivationTask:
    """One schedulable unit of Algorithm 6: statement x strategy x depth.

    A task is pure data (no callables), so it can be pickled to a process
    pool and serialized into a store entry.  ``depth`` is the wavefront
    parametrisation depth (0 for strategies without a depth notion, e.g.
    K-partition tasks, whose internal same-statement rounds are sequential
    by construction and stay inside one task).
    """

    strategy: str
    statement: str
    depth: int = 0

    @property
    def task_id(self) -> str:
        """Human-readable stable identity used for ordering and logs."""
        return f"{self.strategy}:{self.statement}:d{self.depth}"

    def to_dict(self) -> dict[str, Any]:
        return {"strategy": self.strategy, "statement": self.statement, "depth": self.depth}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DerivationTask":
        return cls(
            strategy=data["strategy"],
            statement=data["statement"],
            depth=int(data.get("depth", 0)),
        )


@dataclass
class TaskResult:
    """The output of one executed task: its sub-bounds and its log lines."""

    task: DerivationTask
    sub_bounds: list[SubBound] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task.to_dict(),
            "sub_bounds": [bound.to_dict() for bound in self.sub_bounds],
            "log": list(self.log),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskResult":
        return cls(
            task=DerivationTask.from_dict(data["task"]),
            sub_bounds=[SubBound.from_dict(entry) for entry in data.get("sub_bounds", [])],
            log=list(data.get("log", [])),
        )


@dataclass(frozen=True)
class DerivationPlan:
    """The full ordered task list for one (program, config) derivation."""

    program: AffineProgram
    config: AnalysisConfig
    tasks: tuple[DerivationTask, ...]
    fingerprint: str

    def __len__(self) -> int:
        return len(self.tasks)

    def task_key(self, task: DerivationTask) -> str:
        """Store key of a task-level entry (the task fingerprint).

        Folds together the derivation-semantics version, the program
        fingerprint, the task coordinates and the task-relevant config
        signature.  Strategies narrow the last part via ``task_signature``
        (e.g. a wavefront task is insensitive to ``gamma``, and no task keys
        on ``max_depth`` — so raising it reuses every finished depth).  The
        ``-task`` suffix keeps the key space disjoint from result-level
        entries while sharding by the leading hex as usual.
        """
        from .strategies import STRATEGIES  # local: strategies imports this module

        signature = STRATEGIES[task.strategy].task_signature(self.config)
        text = repr((DERIVATION_VERSION, self.fingerprint, task.task_id, signature))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return f"{digest}-task"

    def task_keys(self) -> list[str]:
        return [self.task_key(task) for task in self.tasks]


def plan_program(
    program: AffineProgram, config: AnalysisConfig, dfg: DFG | None = None
) -> DerivationPlan:
    """Plan the whole derivation: every strategy's tasks, in strategy order.

    The plan is deterministic: strategies appear in ``config.strategies``
    order and each strategy lists its tasks in a fixed (topological)
    statement order, so logs and sub-bound lists are reproducible.
    """
    from .strategies import STRATEGIES  # local: strategies imports this module

    fingerprint = program_fingerprint(program)
    if dfg is None:
        dfg = dfg_for(program, fingerprint)
    tasks: list[DerivationTask] = []
    for name in config.strategies:
        tasks.extend(STRATEGIES[name].plan(dfg, config))
    return DerivationPlan(
        program=program,
        config=config,
        tasks=tuple(tasks),
        fingerprint=fingerprint,
    )
