"""Pluggable bound-derivation strategies and their registry.

Algorithm 6 of the paper interleaves two families of sub-bounds: K-partition
bounds (Alg. 2/3/4) and wavefront bounds (Alg. 5 / Cor. 6.3).  Each family
is a :class:`BoundStrategy`, and the driver is a generic pipeline over the
strategies named by :class:`~repro.analysis.config.AnalysisConfig`.

A strategy participates in the plan/execute pipeline through three methods,
all required (:func:`register_strategy` rejects a strategy missing any):

* ``plan(dfg, config)`` — list the independent
  :class:`~repro.analysis.plan.DerivationTask` units it wants scheduled
  (one per statement for K-partition, one per statement x depth for
  wavefront);
* ``run_task(dfg, config, instance, task)`` — execute one of those tasks,
  returning a :class:`~repro.analysis.plan.TaskResult` (pure function of its
  arguments: it may run in a worker thread or process);
* ``task_signature(config)`` — the slice of the config that can influence
  this strategy's task results, folded into task-level store keys (narrower
  than the full signature, so e.g. raising ``max_depth`` reuses finished
  wavefront depths from the store).

Third parties can register additional strategies (e.g. an isl-backed
derivation, or a domain-specific shortcut) with :func:`register_strategy` and
select them via ``AnalysisConfig(strategies=(...))`` — no changes to the
driver are needed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Protocol, runtime_checkable

from ..core.bounds import SubBound
from ..core.kpartition import (
    MAX_WORKING_PIECES,
    statement_partition_bounds,
)
from ..core.wavefront import sub_param_q_by_wavefront, wavefront_depths
from ..ir import DFG
from .config import AnalysisConfig
from .plan import DerivationTask, TaskResult

__all__ = [
    "BoundStrategy",
    "KPartitionStrategy",
    "MAX_WORKING_PIECES",
    "STRATEGY_METHODS",
    "WavefrontStrategy",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "resolve_strategies",
    "unregister_strategy",
]


@runtime_checkable
class BoundStrategy(Protocol):
    """One family of sub-bound derivations plugged into the Alg. 6 driver.

    A strategy splits its work on one program into independent tasks
    (``plan``), runs one task at a time (``run_task``), and names the config
    fields its task results depend on (``task_signature``); see the module
    docstring.  Strategies must be stateless (or at least reusable): one
    instance may be used for many programs, possibly from multiple worker
    threads or processes.
    """

    #: Registry key, also recorded in ``SubBound.method``-style logs.
    name: str

    def plan(self, dfg: DFG, config: AnalysisConfig) -> list[DerivationTask]:
        """The independent tasks this strategy contributes for ``dfg.program``."""
        ...

    def run_task(
        self,
        dfg: DFG,
        config: AnalysisConfig,
        instance: Mapping[str, int],
        task: DerivationTask,
    ) -> TaskResult:
        """Execute one planned task (a pure function of its arguments)."""
        ...

    def task_signature(self, config: AnalysisConfig) -> tuple:
        """The slice of ``config`` that can influence a task result."""
        ...


#: The methods every strategy must implement.
STRATEGY_METHODS = ("plan", "run_task", "task_signature")


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], BoundStrategy]] = {}


def register_strategy(
    factory: Callable[[], BoundStrategy], *, name: str | None = None, replace: bool = False
) -> Callable[[], BoundStrategy]:
    """Register a strategy factory (typically the strategy class itself).

    ``name`` defaults to the factory's ``name`` class attribute.  Returns the
    factory so it can be used as a decorator::

        @register_strategy
        class MyStrategy:
            name = "mine"
            def plan(self, dfg, config): ...
            def run_task(self, dfg, config, instance, task): ...
            def task_signature(self, config): ...

    A factory whose strategy lacks one of :data:`STRATEGY_METHODS` is
    rejected with :class:`ValueError` here, not in a worker at run time.

    Note for parallel execution: worker processes re-import this module, so a
    custom strategy is only visible to them if its registration runs at
    import time of a module the workers also import (always true with the
    ``fork`` start method used on Linux; under ``spawn`` — macOS/Windows
    defaults — register at module top level, not inside
    ``if __name__ == "__main__"``).
    """
    key = name if name is not None else getattr(factory, "name", None)
    if not key or not isinstance(key, str):
        raise ValueError("strategy factory must define a non-empty string `name`")
    if key in _REGISTRY and not replace:
        raise ValueError(f"strategy {key!r} already registered (pass replace=True to override)")
    probe = factory if isinstance(factory, type) else factory()
    missing = [m for m in STRATEGY_METHODS if not callable(getattr(probe, m, None))]
    if missing:
        raise ValueError(f"strategy {key!r} does not implement {', '.join(missing)}")
    _REGISTRY[key] = factory
    return factory


def unregister_strategy(name: str) -> None:
    """Remove a strategy from the registry (mainly for tests)."""
    _REGISTRY.pop(name, None)


def get_strategy(name: str) -> BoundStrategy:
    """Instantiate the registered strategy called ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None
    return factory()


def available_strategies() -> list[str]:
    """Names of all registered strategies, sorted."""
    return sorted(_REGISTRY)


def resolve_strategies(names: Iterable[str]) -> list[BoundStrategy]:
    """Instantiate the strategies named by a config, preserving order."""
    return [get_strategy(name) for name in names]


# -- built-in strategies ----------------------------------------------------

@register_strategy
class KPartitionStrategy:
    """K-partition sub-bounds (Alg. 2/3/4 + the Sec. 4.2 decomposition).

    Planned as one task per statement; inside a task, the same-statement
    rounds (search a path combination, grow the kernel lattice, derive an
    Alg. 4 bound, remove the covered may-spill region, repeat) are
    sequential by construction and run in
    :func:`repro.core.kpartition.statement_partition_bounds`.
    """

    name = "kpartition"

    def plan(self, dfg: DFG, config: AnalysisConfig) -> list[DerivationTask]:
        return [
            DerivationTask(strategy=self.name, statement=statement)
            for statement in dfg.topological_statements()
        ]

    def run_task(
        self,
        dfg: DFG,
        config: AnalysisConfig,
        instance: Mapping[str, int],
        task: DerivationTask,
    ) -> TaskResult:
        log: list[str] = []
        sub_bounds = statement_partition_bounds(
            dfg,
            task.statement,
            instance,
            config.gamma,
            max_rounds=config.max_subcdags_per_statement,
            log=log,
        )
        return TaskResult(task=task, sub_bounds=sub_bounds, log=log)

    def task_signature(self, config: AnalysisConfig) -> tuple:
        """Config fields a K-partition task's result can depend on."""
        return (
            self.name,
            None if config.instance is None else tuple(sorted(config.instance.items())),
            config.gamma,
            config.max_subcdags_per_statement,
        )


@register_strategy
class WavefrontStrategy:
    """Wavefront sub-bounds (Alg. 5 / Cor. 6.3) at depths 1..max_depth.

    Planned as one task per (statement, depth) pair — depth-major, matching
    the historical loop order — with the plan-time applicability test of
    :func:`repro.core.wavefront.wavefront_depths`.
    """

    name = "wavefront"

    def plan(self, dfg: DFG, config: AnalysisConfig) -> list[DerivationTask]:
        program = dfg.program
        statements = dfg.topological_statements()
        admissible = {
            statement: set(
                wavefront_depths(program.statement(statement).dims, config.max_depth)
            )
            for statement in statements
        }
        return [
            DerivationTask(strategy=self.name, statement=statement, depth=depth)
            for depth in range(1, config.max_depth + 1)
            for statement in statements
            if depth in admissible[statement]
        ]

    def run_task(
        self,
        dfg: DFG,
        config: AnalysisConfig,
        instance: Mapping[str, int],
        task: DerivationTask,
    ) -> TaskResult:
        log: list[str] = []
        sub_bounds: list[SubBound] = []
        bound = sub_param_q_by_wavefront(dfg, task.statement, depth=task.depth)
        if bound is not None:
            sub_bounds.append(bound)
            log.append(f"wavefront[{task.statement} depth {task.depth}]: {bound.smooth}")
        return TaskResult(task=task, sub_bounds=sub_bounds, log=log)

    def task_signature(self, config: AnalysisConfig) -> tuple:
        """Config fields a wavefront task's result can depend on: none.

        The hypothesis check has no knob, and ``max_depth`` decides which
        tasks are *planned*, not what any one task computes, so a store
        populated at ``max_depth=1`` keeps serving its depth-1 entries when
        the config is re-run at ``max_depth=2``.
        """
        return (self.name,)
