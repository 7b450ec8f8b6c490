"""The :class:`Analyzer`: the configurable driver of Algorithm 6.

The analyzer separates *what* to derive (the strategies and knobs captured by
:class:`~repro.analysis.config.AnalysisConfig`) from *how* the derivation is
executed.  A derivation is an explicit three-stage pipeline:

1. **plan** — :func:`repro.analysis.plan.plan_program` asks every configured
   strategy for its independent :class:`~repro.analysis.plan.DerivationTask`
   units (one per statement x strategy x depth);
2. **schedule** — :func:`repro.analysis.scheduler.schedule_work` runs the
   whole batch's tasks, one work group per program, through one event loop
   over a pluggable :class:`~repro.analysis.executor.Executor` (serial,
   thread pool or process pool, chosen by the caller with
   ``executor=``/``n_jobs=``), memoising each finished task in the
   :class:`~repro.analysis.store.BoundStore` keyed by its task fingerprint
   (the store read decodes it, so an entry that does not decode is a miss)
   and handing each program's task set back the moment its last task lands;
3. **combine** — :func:`combine_plan` merges the task results **in plan
   order** (never completion order) through the decomposition lemma, so the
   final bound, its sub-bound list and its log are byte-identical across
   executors and schedulings.

:func:`stream_analyses` is the one driver of that pipeline: it yields
results in completion order while later programs are still deriving.  It
has two fronts: :meth:`Analyzer.analyze`, a one-job stream for one
program, and :func:`repro.polybench.analyze_suite_stream` for registered
kernels (the CLI and ``repro serve`` sit on the latter).  A batch feeds its
whole task set through one shared executor: a single ``suite --jobs 8``
schedules every kernel's tasks in one work queue instead of paying a pool
per program.
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path
from typing import Iterator, Sequence

import sympy

from ..core.bounds import IOBoundResult, SubBound, asymptotic_leading, clamp_at_zero
from ..core.decomposition import combine_sub_q
from ..ir import AffineProgram
from .config import AnalysisConfig
from .executor import Executor
from .plan import (
    DerivationPlan,
    TaskResult,
    dfg_for,
    plan_program,
    program_fingerprint,
)
from .scheduler import (
    StreamCounters,
    WorkItem,
    count_work,
    derivation_count,
    reset_derivation_count,
    reset_task_derivation_count,
    schedule_work,
    task_derivation_count,
)
from .store import DERIVATION_VERSION, BoundStore
from .strategies import STRATEGIES

__all__ = [
    "Analyzer",
    "combine_plan",
    "derivation_count",
    "reset_derivation_count",
    "reset_task_derivation_count",
    "result_key",
    "stream_analyses",
    "task_derivation_count",
]


# -- the pipeline stages ------------------------------------------------------


def combine_plan(
    plan: DerivationPlan, task_results: Sequence[TaskResult]
) -> IOBoundResult:
    """Combine executed tasks into the final bound (deterministic stage).

    ``task_results`` must be in plan order; the sub-bound list and the log
    are their concatenation in that order, followed by the decomposition
    lemma (Alg. 1), the compulsory input misses and the clamp at zero:

        Q_low  =  |inputs|  +  max(0, combined sub-bounds).
    """
    program = plan.program
    instance = plan.config.heuristic_instance(program.params)

    log: list[str] = []
    sub_bounds: list[SubBound] = []
    for task_result in task_results:
        sub_bounds.extend(task_result.sub_bounds)
        log.extend(task_result.log)

    combined, accepted = combine_sub_q(sub_bounds, instance)
    log.append(f"combined {len(accepted)}/{len(sub_bounds)} sub-bounds")

    input_size = program.input_size()
    total_flops = program.total_flops()
    expression = input_size + clamp_at_zero(combined)
    # Expanding around the clamp, not through it: ``expand`` rebuilds (and
    # so re-evaluates) every ``Max`` node it descends into.
    smooth = sympy.expand(input_size) + clamp_at_zero(sympy.expand(combined))
    params = set(program.params)
    asymptotic = asymptotic_leading(smooth, params)

    return IOBoundResult(
        program_name=program.name,
        parameters=program.params,
        expression=expression,
        smooth=smooth,
        asymptotic=asymptotic,
        input_size=input_size,
        total_flops=total_flops,
        sub_bounds=sub_bounds,
        log=log,
    )


def result_key(program: AffineProgram, config: AnalysisConfig) -> str:
    """Result-store key: program fingerprint x config signature x version.

    The derivation version guards correctness across upgrades: a bound
    derived by older code with different semantics keys differently and is
    simply never found, forcing a fresh derivation.
    """
    config_digest = hashlib.sha256(
        f"v{DERIVATION_VERSION}:{config.signature()!r}".encode("utf-8")
    ).hexdigest()
    return f"{program_fingerprint(program)}-{config_digest[:16]}"


def _execute_payload(payload: tuple) -> TaskResult:
    """Module-level task entry point (must be picklable for process pools).

    The DFG comes from the per-process cache shared with the planner
    (:func:`repro.analysis.plan.dfg_for`): in-process executors reuse the
    plan-time DFG, a pool worker builds it once per program.  The plan's
    fingerprint rides along so the cache lookup never re-hashes the program.
    """
    program, config, task, fingerprint = payload
    dfg = dfg_for(program, fingerprint)
    instance = config.heuristic_instance(program.params)
    return STRATEGIES[task.strategy].run_task(dfg, config, instance, task)


def stream_analyses(
    jobs: Sequence[tuple[AffineProgram, AnalysisConfig]],
    executor: Executor | str | None = None,
    n_jobs: int = 1,
    store: BoundStore | None = None,
    counters: StreamCounters | None = None,
) -> Iterator[tuple[int, IOBoundResult]]:
    """Stream ``(job_index, result)`` pairs in completion order.

    The engine under :class:`Analyzer` (one program) and
    :func:`repro.polybench.analyze_suite_stream` (per-kernel configs): every
    job is planned, its tasks become one work group of one
    :func:`~repro.analysis.scheduler.schedule_work` ready queue, and a job's
    bound is combined and yielded the moment its last task lands — while
    other jobs' tasks are still running.  A per-stream
    :class:`~repro.analysis.scheduler.StreamCounters` counts only *this*
    stream's derivations and tasks — the process-global
    :func:`derivation_count` aggregates over every stream running
    concurrently in the process, so a concurrent front-end must account per
    stream, never by global deltas.

    ``executor``/``n_jobs`` choose how the whole batch runs (see
    :func:`~repro.analysis.executor.lease_executor`); the configs only say
    what each job derives.

    Ordering: store-satisfied jobs first (in job order — a warm job never
    waits behind a cold one), then completion order.  Jobs that share a
    result key (same program content, same result-relevant config) are
    derived once and fanned out to every index that asked, immediately after
    one another.  Only *when* a result is yielded depends on scheduling,
    never its content.
    """
    jobs = list(jobs)
    # One fingerprint+digest pass per job: the key is reused for the cache
    # check, the dedup grouping and the result write-back below.
    keys = [result_key(program, config) for program, config in jobs]
    pending: list[int] = []
    for index, (program, config) in enumerate(jobs):
        cached = store.get(keys[index]) if store is not None else None
        if cached is not None:
            yield index, cached
        else:
            pending.append(index)
    if not pending:
        return

    # Duplicate jobs (same result key) share one derivation: the result is
    # fanned out to every index that asked for it.
    by_key: dict[str, list[int]] = {}
    for index in pending:
        by_key.setdefault(keys[index], []).append(index)
    groups = list(by_key.values())

    plans = [plan_program(*jobs[indices[0]]) for indices in groups]
    work = [
        [
            WorkItem(
                (plan.program, plan.config, task, plan.fingerprint),
                plan.task_key(task) if store is not None else None,
            )
            for task in plan.tasks
        ]
        for plan in plans
    ]
    for plan_index, task_results in schedule_work(
        work,
        _execute_payload,
        executor=executor,
        n_jobs=n_jobs,
        store_get=None if store is None else partial(
            store.get_task, decode=TaskResult.from_dict
        ),
        store_put=None if store is None else (
            lambda key, task_result: store.put_task(key, task_result.to_dict())
        ),
        on_executed=partial(count_work, "task_derivations", counters),
    ):
        count_work("derivations", counters)
        result = combine_plan(plans[plan_index], task_results)
        indices = groups[plan_index]
        _program, config = jobs[indices[0]]
        if store is not None:
            store.put(
                keys[indices[0]],
                result,
                metadata={"config_signature": repr(config.signature())},
            )
        for index in indices:
            yield index, result


class Analyzer:
    """Derive I/O lower bounds for affine programs under one configuration.

    Typical usage::

        from repro.analysis import AnalysisConfig, Analyzer

        analyzer = Analyzer(AnalysisConfig(max_depth=1))
        result = analyzer.analyze(program, executor="process", n_jobs=4)

    For many programs in one batch, call :func:`stream_analyses` with one
    ``(program, config)`` job each.

    With a :class:`~repro.analysis.store.BoundStore` attached (``store=``, a
    store or the path of its root), results are memoised on disk at two
    granularities: whole results keyed by the program fingerprint and the
    configuration signature, and individual derivation tasks keyed by their
    task fingerprints — so repeated runs skip everything, and interrupted or
    config-tweaked runs skip everything that still applies.  Pass
    ``store=BoundStore()`` to share the default per-user store
    (``$REPRO_STORE`` or ``~/.cache/repro``).
    """

    def __init__(
        self,
        config: AnalysisConfig | None = None,
        store: BoundStore | str | Path | None = None,
    ):
        self.config = config if config is not None else AnalysisConfig()
        if isinstance(store, (str, Path)):
            store = BoundStore(store)
        self.store = store

    def analyze(
        self,
        program: AffineProgram,
        executor: Executor | str | None = None,
        n_jobs: int = 1,
    ) -> IOBoundResult:
        """Derive the parametric I/O lower bound for one program.

        A one-job :func:`stream_analyses` call: a result-store hit is
        returned without planning, otherwise the program's tasks run on
        ``executor`` with ``n_jobs`` workers and the combined bound is
        written back to the store.
        """
        [(_index, result)] = stream_analyses(
            [(program, self.config)], executor=executor, n_jobs=n_jobs, store=self.store
        )
        return result
