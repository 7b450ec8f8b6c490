"""The two bound-derivation strategies of Algorithm 6 and their fixed table.

Algorithm 6 of the paper interleaves two families of sub-bounds: K-partition
bounds (Alg. 2/3/4) and wavefront bounds (Alg. 5 / Cor. 6.3).  Each family
is one strategy object, and :data:`STRATEGIES` maps the names that
:class:`~repro.analysis.config.AnalysisConfig` accepts to them; the planner,
the task keys and the task runner all look strategies up there.

A strategy takes part in the plan/execute pipeline through three methods:

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

Strategies are stateless: the one instance in the table serves every
program, from any worker thread or process.
"""

from __future__ import annotations

from typing import Mapping

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
    "KPartitionStrategy",
    "MAX_WORKING_PIECES",
    "STRATEGIES",
    "WavefrontStrategy",
]


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


#: Every strategy by name, in Algorithm 6 order.  Its keys are exactly the
#: names ``AnalysisConfig`` accepts (``config.DEFAULT_STRATEGIES``), so a
#: config that built can always be looked up here.
STRATEGIES: dict[str, KPartitionStrategy | WavefrontStrategy] = {
    "kpartition": KPartitionStrategy(),
    "wavefront": WavefrontStrategy(),
}
