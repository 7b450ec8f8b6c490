"""Executor acceptance: determinism, resume, counters, selection.

The pipeline's headline guarantee is that the executor changes *wall time
only*: serial, thread and process execution — and any completion order at
all — produce byte-identical results.  These tests also cover the task-level
resume path (a run killed half-way reuses its finished tasks) and the
thread-safety of the derivation counters.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import time

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derivation_count,
    lease_executor,
    plan_program,
    reset_derivation_count,
    reset_task_derivation_count,
    resolve_executor,
    stream_analyses,
    task_derivation_count,
)
from repro.analysis.strategies import STRATEGIES
from repro.ir import DFG
from repro.polybench import get_kernel

from .adversaries import shuffled_executor

def _worker_pid(_item) -> int:
    return os.getpid()


#: Multi-statement kernels: several independent tasks per derivation.
KERNELS = ["durbin", "bicg", "mvt"]


def result_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


class TestByteIdenticalAcrossExecutors:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_thread_and_process_match_serial(self, kernel):
        program = get_kernel(kernel).program
        config = AnalysisConfig(max_depth=1)
        serial = result_bytes(Analyzer(config).analyze(program))
        thread = result_bytes(
            Analyzer(config).analyze(program, executor="thread", n_jobs=4)
        )
        process = result_bytes(
            Analyzer(config).analyze(program, executor="process", n_jobs=2)
        )
        assert thread == serial
        assert process == serial

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_shuffled_completion_order_is_invisible(self, seed):
        """sub_bounds and log ordering must be plan-deterministic even when
        tasks complete in an arbitrary (here: seeded random) order."""
        program = get_kernel("durbin").program
        config = AnalysisConfig(max_depth=1)
        baseline = Analyzer(config).analyze(program)
        adversary = shuffled_executor(len(plan_program(program, config).tasks), seed)
        shuffled = Analyzer(config).analyze(program, executor=adversary)
        assert result_bytes(shuffled) == result_bytes(baseline)
        assert shuffled.log == baseline.log
        assert [b.to_dict() for b in shuffled.sub_bounds] == [
            b.to_dict() for b in baseline.sub_bounds
        ]

    def test_batched_stream_matches_per_program_results(self):
        programs = [get_kernel(name).program for name in KERNELS]
        config = AnalysisConfig(max_depth=1)
        individual = [Analyzer(config).analyze(p) for p in programs]
        batched = dict(
            stream_analyses(
                [(p, config) for p in programs], executor="thread", n_jobs=4
            )
        )
        for index, single in enumerate(individual):
            assert result_bytes(single) == result_bytes(batched[index])


class TestTaskLevelResume:
    def test_killed_run_resumes_from_finished_tasks(self, tmp_path):
        """Simulate a cold run killed mid-way: some task entries are in the
        store, the result entry is not.  The next run must execute only the
        missing tasks and still produce the full result."""
        store = BoundStore(tmp_path)
        program = get_kernel("durbin").program
        config = AnalysisConfig(max_depth=1)
        plan = plan_program(program, config)
        assert len(plan.tasks) >= 4

        # The "crashed" run finished exactly two tasks before dying.
        dfg = DFG.from_program(program)
        instance = config.heuristic_instance(program.params)
        finished = plan.tasks[:2]
        for task in finished:
            result = STRATEGIES[task.strategy].run_task(dfg, config, instance, task)
            store.put_task(plan.task_key(task), result.to_dict())

        reset_task_derivation_count()
        resumed = Analyzer(config, store=store).analyze(program)
        assert task_derivation_count() == len(plan.tasks) - len(finished)

        baseline = Analyzer(config).analyze(program)
        assert resumed.log == baseline.log
        assert resumed.smooth == baseline.smooth
        assert resumed.asymptotic == baseline.asymptotic

    def test_complete_task_set_still_counts_a_program_derivation(self, tmp_path):
        """Task-level hits don't make a run free: the warm-store *program*
        invariant is carried by result-level entries, which record the
        combination too."""
        store = BoundStore(tmp_path)
        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        Analyzer(config, store=store).analyze(program)

        # Drop only the result-level entry, keeping every task entry.
        for path in tmp_path.glob("objects/*/*.json"):
            if not path.stem.endswith("-task"):
                path.unlink()

        reset_derivation_count()
        reset_task_derivation_count()
        Analyzer(config, store=store).analyze(program)
        assert task_derivation_count() == 0  # every task reloaded
        assert derivation_count() == 1  # but the pipeline (plan+combine) ran

        reset_derivation_count()
        Analyzer(config, store=store).analyze(program)
        assert derivation_count() == 0  # result entry restored: fully warm


class TestCounters:
    def test_concurrent_analyses_do_not_lose_counts(self):
        """Hammer the shared counters from parallel analyzer threads: with
        the lock in place, no increment may be lost."""
        programs = [get_kernel(name).program for name in KERNELS]
        config = AnalysisConfig(max_depth=1)
        expected_tasks = sum(
            len(plan_program(program, config).tasks) for program in programs
        )
        reset_derivation_count()
        reset_task_derivation_count()
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(programs)) as pool:
            futures = [
                pool.submit(Analyzer(config).analyze, program, "thread", 2)
                for program in programs
            ]
            for future in futures:
                future.result()
        assert derivation_count() == len(programs)
        assert task_derivation_count() == expected_tasks


class TestSelection:
    def test_resolve_by_name(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", 4), ThreadExecutor)
        assert isinstance(resolve_executor("process", 4), ProcessExecutor)

    def test_instances_pass_through(self):
        executor = ThreadExecutor(n_jobs=3)
        assert resolve_executor(executor, 8) is executor

    def test_default_depends_on_n_jobs(self):
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        assert isinstance(resolve_executor(None, 4), ProcessExecutor)

    @pytest.mark.parametrize("executor", [None, "serial", "thread", "process"])
    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_fewer_than_one_job_rejected(self, executor, n_jobs):
        """No silent clamp: a worker count below one is a user error on
        every executor, the serial one included."""
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            resolve_executor(executor, n_jobs)

    def test_lease_closes_only_what_it_resolved(self):
        leased, release = lease_executor("thread", 2)
        leased.submit(abs, -1).result()
        release()
        assert leased._pool is None, "a leased name is closed on release"

        live = ThreadExecutor(n_jobs=2)
        try:
            leased, release = lease_executor(live, 8)
            assert leased is live
            live.submit(abs, -1).result()
            release()
            assert live._pool is not None, "a live instance stays the caller's"
        finally:
            live.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("fibers")

    def test_call_executor_drives_analyze(self, monkeypatch):
        """analyze runs on the executor named at the call, and the bound
        matches the serial one."""
        from repro.analysis import executor as executor_module

        resolved = []
        real = executor_module.resolve_executor

        def spy(executor, n_jobs=1):
            resolved.append(real(executor, n_jobs))
            return resolved[-1]

        monkeypatch.setattr(executor_module, "resolve_executor", spy)
        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        threaded = Analyzer(config).analyze(program, executor="thread", n_jobs=2)
        assert [type(e) for e in resolved] == [ThreadExecutor]
        assert resolved[0].n_jobs == 2
        serial = Analyzer(config).analyze(program, executor="serial")
        assert result_bytes(threaded) == result_bytes(serial)


class TestPoolLifecycle:
    def test_pool_is_reused_across_submits_and_closed_once(self):
        executor = ThreadExecutor(n_jobs=2)
        first = [executor.submit(lambda x: x * 2, x) for x in [1, 2, 3]]
        pool = executor._pool
        second = [executor.submit(lambda x: x + 1, x) for x in [1, 2, 3]]
        assert executor._pool is pool, "submit must reuse the lazily-created pool"
        assert [future.result() for future in first] == [2, 4, 6]
        assert [future.result() for future in second] == [2, 3, 4]
        executor.close()
        assert executor._pool is None
        executor.close()  # idempotent

    def test_a_pool_broken_by_a_dead_worker_is_replaced_on_submit(self):
        executor = ProcessExecutor(n_jobs=1)
        try:
            executor.start()
            pid = executor.submit(_worker_pid, None).result()
            running = executor.submit(time.sleep, 60)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(concurrent.futures.BrokenExecutor):
                running.result(timeout=60)
            assert executor.submit(abs, -2).result() == 2
            assert executor.submit(_worker_pid, None).result() != pid
        finally:
            executor.close()

    def test_process_workers_ignore_sigint(self):
        """Ctrl-C at a terminal reaches the whole process group: the worker
        stays up, and the parent decides when it stops."""
        executor = ProcessExecutor(n_jobs=1)
        try:
            pid = executor.submit(_worker_pid, None).result()
            os.kill(pid, signal.SIGINT)
            assert executor.submit(_worker_pid, None).result(timeout=60) == pid
        finally:
            executor.close()

    def test_serial_submit_runs_in_line(self):
        future = SerialExecutor().submit(abs, -3)
        assert future.done() and future.result() == 3
        with pytest.raises(TypeError):
            SerialExecutor().submit(abs, "not a number")

    def test_submit_propagates_worker_exceptions(self):
        def boom(x):
            raise RuntimeError(f"task {x} failed")

        executor = ThreadExecutor(n_jobs=2)
        try:
            futures = [executor.submit(boom, x) for x in [1, 2, 3]]
            for future in futures:
                with pytest.raises(RuntimeError, match="task"):
                    future.result()
        finally:
            executor.close()
