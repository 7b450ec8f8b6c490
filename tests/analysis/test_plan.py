"""The derivation plan: task decomposition, ordering and keys.

The plan is the contract of the whole pipeline: deterministic task lists
(one per statement x strategy x depth) and stable task fingerprints that key
the task-level store entries.
"""

from __future__ import annotations

from repro.analysis import (
    STRATEGIES,
    AnalysisConfig,
    Analyzer,
    BoundStore,
    plan_program,
    reset_task_derivation_count,
    result_key,
    task_derivation_count,
)
from repro.analysis.plan import DerivationTask, ProgramCache, TaskResult
from repro.ir import DFG
from repro.polybench import get_kernel


class TestPlanStructure:
    def test_one_task_per_statement_strategy_depth(self):
        program = get_kernel("durbin").program
        plan = plan_program(program, AnalysisConfig(max_depth=1))
        ids = [task.task_id for task in plan.tasks]
        # One kpartition task per statement (topological order), then one
        # wavefront task per admissible (statement, depth) pair, depth-major.
        kpart = [i for i in ids if i.startswith("kpartition:")]
        wave = [i for i in ids if i.startswith("wavefront:")]
        assert len(kpart) == len(program.statements)
        assert wave and all(i.endswith(":d1") for i in wave)
        assert ids == kpart + wave  # strategy order = config order

    def test_max_depth_zero_plans_no_wavefront_tasks(self):
        program = get_kernel("durbin").program
        plan = plan_program(program, AnalysisConfig(max_depth=0))
        assert all(task.strategy == "kpartition" for task in plan.tasks)

    def test_plan_is_deterministic(self):
        program = get_kernel("correlation").program
        config = AnalysisConfig(max_depth=1)
        first = plan_program(program, config)
        second = plan_program(program, config)
        assert first.tasks == second.tasks
        assert first.task_keys() == second.task_keys()

    def test_wavefront_tasks_respect_statement_dimensionality(self):
        # gemm's single 3-D statement admits depths 1 and 2, not 3.
        program = get_kernel("gemm").program
        plan = plan_program(program, AnalysisConfig(max_depth=5))
        depths = sorted(t.depth for t in plan.tasks if t.strategy == "wavefront")
        assert depths == [1, 2]

    def test_task_roundtrips_through_dict(self):
        task = DerivationTask(strategy="wavefront", statement="S", depth=2)
        assert DerivationTask.from_dict(task.to_dict()) == task


class TestTaskKeys:
    def test_keys_are_disjoint_from_result_keys(self):
        program = get_kernel("gemm").program
        plan = plan_program(program, AnalysisConfig(max_depth=1))
        for key in plan.task_keys():
            assert key.endswith("-task")

    def test_keys_are_pinned(self):
        """Store keys are a contract with every store already on disk: a
        change that moves one turns a warm store cold.  Update these only
        together with a ``DERIVATION_VERSION`` bump."""
        program = get_kernel("durbin").program
        config = AnalysisConfig(max_depth=1)
        assert result_key(program, config) == (
            "504526c62e82412707de96938f81eab36785f9a2270c2a801a3623c3457d8dc7-2ef922f3ec037419"
        )
        plan = plan_program(program, config)
        assert dict(zip((task.task_id for task in plan.tasks), plan.task_keys())) == {
            "kpartition:ALPHA:d0": "0ef5460e230ad08262e18101d7bbc75906b8987402f3847edb4d568c66fbc5e1-task",
            "kpartition:SUM:d0": "b65703db9da2fa3a55261450f49612c6f7a86e83085c54178f24eee48ebd750f-task",
            "kpartition:Y:d0": "ab34c48e42a82de1a3347afdc6aecb37dc1a94c8ffda338c9e6e8d3c18ea5a05-task",
            "wavefront:SUM:d1": "2640a716b263bbe3a7b7c16cc7a714e49cefd48f84564178c1f3e112d5d2bfb2-task",
            "wavefront:Y:d1": "03f6ec605405e36a0736f94f68ec56d30887e9306560bd35ca8b5bc4828229ec-task",
        }

    def test_gamma_invalidates_kpartition_but_not_wavefront_tasks(self):
        program = get_kernel("durbin").program
        base = plan_program(program, AnalysisConfig(max_depth=1))
        tweaked = plan_program(program, AnalysisConfig(max_depth=1, gamma=0.5))
        for task, old_key, new_key in zip(
            base.tasks, base.task_keys(), tweaked.task_keys()
        ):
            if task.strategy == "kpartition":
                assert old_key != new_key
            else:
                assert old_key == new_key

    def test_raising_max_depth_reuses_finished_depths(self, tmp_path):
        """A store populated at max_depth=1 serves its tasks to a max_depth=2
        run: only the genuinely new depth-2 tasks execute."""
        store = BoundStore(tmp_path)
        program = get_kernel("gemm").program
        shallow = AnalysisConfig(max_depth=1)
        deep = shallow.replace(max_depth=2)
        Analyzer(shallow, store=store).analyze(program)

        new_tasks = len(plan_program(program, deep).tasks) - len(
            plan_program(program, shallow).tasks
        )
        assert new_tasks > 0
        reset_task_derivation_count()
        Analyzer(deep, store=store).analyze(program)
        assert task_derivation_count() == new_tasks


class TestTaskResultSerialization:
    def test_roundtrip_preserves_bounds_and_log(self):
        program = get_kernel("durbin").program
        config = AnalysisConfig(max_depth=1)
        dfg = DFG.from_program(program)
        instance = config.heuristic_instance(program.params)
        task = DerivationTask(strategy="wavefront", statement="Y", depth=1)
        result = STRATEGIES["wavefront"].run_task(dfg, config, instance, task)
        assert result.sub_bounds, "durbin's Y must yield a wavefront bound"

        restored = TaskResult.from_dict(result.to_dict())
        assert restored.task == task
        assert restored.log == result.log
        assert [b.to_dict() for b in restored.sub_bounds] == [
            b.to_dict() for b in result.sub_bounds
        ]


class TestProgramCache:
    def test_bounded_lru_keyed_by_fingerprint_and_extra_parts(self):
        built = []

        def build(program, *extra):
            built.append((program.name, *extra))
            return object()

        cache = ProgramCache(build, limit=2)
        gemm, atax, bicg = (get_kernel(name).program for name in ("gemm", "atax", "bicg"))
        first = cache.get(gemm)
        assert cache.get(gemm) is first
        assert cache.get(gemm, None, 4) is not first  # extra key parts key too
        cache.get(gemm)  # refresh: the (gemm, 4) entry is now least recent
        cache.get(atax)  # evicts (gemm, 4)
        assert cache.get(gemm) is first
        cache.get(gemm, None, 4)
        assert built == [("gemm",), ("gemm", 4), ("atax",), ("gemm", 4)]
        cache.get(bicg)
        assert len(built) == 5
