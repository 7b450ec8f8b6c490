"""Strategy registry: built-ins, custom plug-ins, and batches of programs."""

import pytest
import sympy

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    available_strategies,
    get_strategy,
    register_strategy,
    stream_analyses,
    unregister_strategy,
)
from repro.analysis.plan import DerivationTask, TaskResult
from repro.polybench import get_kernel


class OneTaskPerStatement:
    """Task-protocol scaffolding for test strategies: one task per statement."""

    def plan(self, dfg, config):
        return [
            DerivationTask(strategy=self.name, statement=statement)
            for statement in dfg.topological_statements()
        ]

    def task_signature(self, config):
        return (self.name,)


class TestRegistry:
    def test_builtins_registered(self):
        assert "kpartition" in available_strategies()
        assert "wavefront" in available_strategies()

    def test_get_strategy_instantiates(self):
        strategy = get_strategy("kpartition")
        assert strategy.name == "kpartition"
        assert callable(strategy.plan) and callable(strategy.run_task)

    def test_unknown_strategy_lists_alternatives(self):
        with pytest.raises(KeyError, match="kpartition"):
            get_strategy("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        class Duplicate(OneTaskPerStatement):
            name = "kpartition"

            def run_task(self, dfg, config, instance, task):
                return TaskResult(task=task)

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Duplicate)

    def test_factory_without_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_strategy(lambda: None)

    def test_incomplete_strategy_rejected_at_registration(self):
        """A plug-in missing part of the task protocol fails when it is
        registered, naming what is missing, not later inside a worker."""

        class PlanOnly:
            name = "test-plan-only"

            def plan(self, dfg, config):
                return []

        class DeriveOnly:
            name = "test-derive-only"

            def derive(self, dfg, config, instance, log):
                return []

        with pytest.raises(
            ValueError, match="'test-plan-only' does not implement run_task, task_signature"
        ):
            register_strategy(PlanOnly)
        with pytest.raises(ValueError, match="plan, run_task, task_signature"):
            register_strategy(DeriveOnly)
        # A non-class factory is checked through the instance it builds.
        with pytest.raises(ValueError, match="run_task, task_signature"):
            register_strategy(lambda: PlanOnly(), name="test-plan-only-lambda")
        assert not {
            "test-plan-only", "test-derive-only", "test-plan-only-lambda"
        } & set(available_strategies())


class TestCustomStrategy:
    def test_noop_strategy_plugs_into_the_driver(self):
        """A registered no-op strategy runs through Analyzer unchanged: the
        driver still combines sub-bounds and adds the compulsory misses."""

        calls = []

        class NoOpStrategy(OneTaskPerStatement):
            name = "test-noop"

            def run_task(self, dfg, config, instance, task):
                calls.append(dfg.program.name)
                return TaskResult(task=task, log=["noop: nothing derived"])

        register_strategy(NoOpStrategy)
        try:
            program = get_kernel("gemm").program
            result = Analyzer(AnalysisConfig(strategies=("test-noop",))).analyze(program)
        finally:
            unregister_strategy("test-noop")

        assert calls == ["gemm"]
        assert result.sub_bounds == []
        assert "noop: nothing derived" in result.log
        # No sub-bounds -> the bound degenerates to the compulsory input misses.
        assert sympy.simplify(result.smooth - program.input_size()) == 0

    def test_custom_strategy_composes_with_builtins(self):
        class MarkerStrategy(OneTaskPerStatement):
            name = "test-marker"

            def run_task(self, dfg, config, instance, task):
                return TaskResult(task=task, log=["marker ran"])

        register_strategy(MarkerStrategy)
        try:
            config = AnalysisConfig(strategies=("kpartition", "test-marker"), max_depth=0)
            result = Analyzer(config).analyze(get_kernel("gemm").program)
        finally:
            unregister_strategy("test-marker")

        assert "marker ran" in result.log
        assert any(b.method == "kpartition" for b in result.sub_bounds)

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
