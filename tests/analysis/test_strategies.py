"""The fixed strategy table: the two built-ins, the driver, and batches."""

import pytest
import sympy

from repro.analysis import (
    DEFAULT_STRATEGIES,
    STRATEGIES,
    AnalysisConfig,
    Analyzer,
    BoundStore,
    combine_plan,
    plan_program,
    stream_analyses,
)
from repro.analysis.plan import TaskResult
from repro.polybench import get_kernel


class TestTable:
    def test_table_names_are_the_names_the_config_accepts(self):
        assert tuple(STRATEGIES) == DEFAULT_STRATEGIES
        for name, strategy in STRATEGIES.items():
            assert strategy.name == name
            AnalysisConfig(strategies=(name,))
        with pytest.raises(ValueError, match="unknown strategy"):
            AnalysisConfig(strategies=("kpartition", "isl"))

    @pytest.mark.parametrize("name", DEFAULT_STRATEGIES)
    def test_planned_tasks_resolve_to_their_strategy(self, name):
        """Task keys and task runs look a task's strategy up by the name the
        task carries, so every planned task must carry its table key."""
        config = AnalysisConfig(max_depth=2, strategies=(name,))
        for kernel in ("durbin", "gemm", "jacobi-2d"):
            plan = plan_program(get_kernel(kernel).program, config)
            assert plan.tasks
            assert {task.strategy for task in plan.tasks} == {name}
            for task in plan.tasks:
                assert STRATEGIES[task.strategy].task_signature(config)[0] == name


class TestDriver:
    def test_no_sub_bounds_give_the_input_misses_only(self):
        """When no task derives a sub-bound, the combination degenerates to
        the compulsory input misses, and every task's log is kept."""
        program = get_kernel("gemm").program
        plan = plan_program(program, AnalysisConfig())
        empty = [TaskResult(task=task, log=[f"{task.task_id}: nothing"]) for task in plan.tasks]
        result = combine_plan(plan, empty)

        assert result.sub_bounds == []
        assert result.log[:-1] == [f"{task.task_id}: nothing" for task in plan.tasks]
        assert sympy.simplify(result.smooth - program.input_size()) == 0

    def test_kpartition_only_config_skips_wavefront(self):
        program = get_kernel("durbin").program
        full = Analyzer(AnalysisConfig(max_depth=1)).analyze(program)
        kpart_only = Analyzer(
            AnalysisConfig(max_depth=1, strategies=("kpartition",))
        ).analyze(program)
        assert any(b.method == "wavefront" for b in full.sub_bounds)
        assert not any(b.method == "wavefront" for b in kpart_only.sub_bounds)


def collect(programs, config, **run):
    """Results of one ``stream_analyses`` batch, in input order."""
    streamed = dict(stream_analyses([(p, config) for p in programs], **run))
    return [streamed[index] for index in range(len(programs))]


class TestBatch:
    KERNELS = ["gemm", "atax", "mvt", "trisolv", "bicg"]

    def test_parallel_matches_sequential(self):
        """Acceptance: a batch of >= 5 PolyBench kernels with n_jobs=2
        matches the sequential results."""
        programs = [get_kernel(name).program for name in self.KERNELS]
        config = AnalysisConfig(max_depth=0)
        sequential = collect(programs, config)
        parallel = collect(programs, config, n_jobs=2)
        assert [r.program_name for r in parallel] == [r.program_name for r in sequential]
        for seq, par in zip(sequential, parallel):
            assert sympy.simplify(seq.smooth - par.smooth) == 0
            assert sympy.simplify(seq.asymptotic - par.asymptotic) == 0

    def test_batch_preserves_input_order(self):
        names = list(reversed(self.KERNELS))
        programs = [get_kernel(name).program for name in names]
        results = collect(programs, AnalysisConfig(max_depth=0))
        assert [r.program_name for r in results] == names

    def test_suite_honours_n_jobs_with_overrides(self):
        """analyze_suite runs config overrides on the n_jobs given at the
        call and matches the serial run."""
        from repro.polybench import analyze_suite

        analyses = analyze_suite(self.KERNELS[:3], max_depth=0, n_jobs=2)
        assert [a.spec.name for a in analyses] == self.KERNELS[:3]
        reference = analyze_suite(self.KERNELS[:3], max_depth=0)
        for batch, ref in zip(analyses, reference):
            assert sympy.simplify(batch.result.smooth - ref.result.smooth) == 0

    def test_batch_uses_disk_cache(self, tmp_path):
        programs = [get_kernel(name).program for name in self.KERNELS[:3]]
        config = AnalysisConfig(max_depth=0)
        first = collect(programs, config, store=BoundStore(tmp_path))
        entries = list(tmp_path.glob("objects/*/*.json"))
        results = [p for p in entries if not p.stem.endswith("-task")]
        tasks = [p for p in entries if p.stem.endswith("-task")]
        assert len(results) == 3
        assert tasks, "task-level entries must be memoised alongside results"
        second = collect(programs, config, store=BoundStore(tmp_path))
        for a, b in zip(first, second):
            assert a.asymptotic == b.asymptotic
