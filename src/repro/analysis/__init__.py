"""repro.analysis — the configurable, batch-capable Analyzer API.

This package is the public entry point for deriving I/O lower bounds:

* :class:`AnalysisConfig` — every knob of the derivation in one frozen,
  JSON-serializable object (the wavefront hypothesis check is not a knob:
  it is always the symbolic one of :mod:`repro.rel`);
* :data:`STRATEGIES` — the fixed table of the two sub-bound families of
  Algorithm 6, :class:`KPartitionStrategy` and :class:`WavefrontStrategy`,
  each implementing ``plan``/``run_task``/``task_signature``;
* :mod:`~repro.analysis.plan` / :mod:`~repro.analysis.executor` /
  :mod:`~repro.analysis.scheduler` — the plan -> schedule -> combine
  pipeline: every derivation is an explicit list of independent
  :class:`DerivationTask` units scheduled over a pluggable
  :class:`Executor` (``submit`` one task, get a future back:
  :class:`SerialExecutor`, :class:`ThreadExecutor`,
  :class:`ProcessExecutor`; chosen at the call with ``executor=`` and
  ``n_jobs=``, never by the config; :func:`lease_executor` is the one
  rule for who closes it) by an event-driven scheduler
  (:func:`schedule_work`: one ready queue per batch, fewest-remaining
  priority, combine-on-last-task), with results combined in plan order so
  every executor and scheduling produces byte-identical bounds;
* :func:`stream_analyses` — the one derivation driver: plan every job,
  schedule the batch's tasks through one shared executor, combine each
  program as its last task lands (results yielded in completion order while
  later programs still derive), with on-disk memoisation keyed by
  :func:`program_fingerprint` at both the result and the task level;
* :class:`Analyzer` — ``analyze(program)`` for one program (a one-job
  stream); :func:`repro.polybench.analyze_suite` is the front for
  registered kernels;
* :class:`BoundStore` — the shared content-addressed persistent store behind
  that memoisation (``$REPRO_STORE`` / ``~/.cache/repro``), with schema
  negotiation, LRU eviction and ``stats``/``gc``/``clear`` maintenance;
* :mod:`~repro.analysis.serialization` — JSON documents of many results
  (:func:`save_results` / :func:`load_results`).

Typical usage::

    from repro.analysis import AnalysisConfig, Analyzer

    analyzer = Analyzer(AnalysisConfig(max_depth=1), store=".iolb")
    result = analyzer.analyze(program, executor="process", n_jobs=4)
    print(result.asymptotic, result.oi_upper_bound())
"""

from .analyzer import (
    DERIVATION_VERSION,
    Analyzer,
    combine_plan,
    derivation_count,
    program_fingerprint,
    reset_derivation_count,
    reset_task_derivation_count,
    result_key,
    stream_analyses,
    task_derivation_count,
)
from .scheduler import StreamCounters, WorkItem, schedule_work
from .config import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_GAMMA,
    DEFAULT_MAX_SUBCDAGS_PER_STATEMENT,
    DEFAULT_PARAM_VALUE,
    DEFAULT_STRATEGIES,
    AnalysisConfig,
)
from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    lease_executor,
    resolve_executor,
)
from .plan import (
    DerivationPlan,
    DerivationTask,
    TaskResult,
    plan_program,
)
from .serialization import (
    load_results,
    results_from_document,
    results_to_document,
    save_results,
)
from .store import (
    BUDGET_ENV,
    STORE_ENV,
    STORE_SCHEMA,
    BoundStore,
    StoreStats,
    default_store_root,
    parse_size,
)
from .strategies import STRATEGIES, KPartitionStrategy, WavefrontStrategy

__all__ = [
    "AnalysisConfig",
    "Analyzer",
    "BUDGET_ENV",
    "BoundStore",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_GAMMA",
    "DEFAULT_MAX_SUBCDAGS_PER_STATEMENT",
    "DEFAULT_PARAM_VALUE",
    "DEFAULT_STRATEGIES",
    "DERIVATION_VERSION",
    "DerivationPlan",
    "DerivationTask",
    "EXECUTOR_NAMES",
    "Executor",
    "KPartitionStrategy",
    "ProcessExecutor",
    "STORE_ENV",
    "STORE_SCHEMA",
    "STRATEGIES",
    "SerialExecutor",
    "StoreStats",
    "StreamCounters",
    "TaskResult",
    "ThreadExecutor",
    "WavefrontStrategy",
    "WorkItem",
    "combine_plan",
    "default_store_root",
    "derivation_count",
    "lease_executor",
    "load_results",
    "parse_size",
    "plan_program",
    "program_fingerprint",
    "reset_derivation_count",
    "reset_task_derivation_count",
    "resolve_executor",
    "result_key",
    "results_from_document",
    "results_to_document",
    "save_results",
    "schedule_work",
    "stream_analyses",
    "task_derivation_count",
]
