"""Streaming scheduler acceptance: completion-order semantics, priority,
determinism, and interrupt-resume.

The scheduler's headline guarantees:

* **streaming** — a program's bound is yielded the moment its last task
  lands, while other programs' tasks are still running (never "after the
  whole batch");
* **priority** — workers drain the program with the fewest remaining tasks
  first, so small programs do not queue behind big ones;
* **determinism** — collected stream output is byte-identical to each
  program derived alone and serially (`Analyzer.analyze`), on every
  executor and under adversarial completion orders;
* **interrupt safety** — a KeyboardInterrupt mid-batch loses only in-flight
  tasks: everything that landed is in the store, and the next run executes
  only what is missing.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    SerialExecutor,
    StreamCounters,
    ThreadExecutor,
    derivation_count,
    WorkItem,
    plan_program,
    reset_task_derivation_count,
    schedule_work,
    stream_analyses,
    task_derivation_count,
)
from repro.analysis.analyzer import _execute_payload
from repro.polybench import analyze_suite, analyze_suite_stream, get_kernel

from .adversaries import reversed_executor

#: A deliberately lopsided batch: durbin's plan has several tasks, the
#: BLAS kernels' plans are small — the material for priority/streaming tests.
BIG = "durbin"
SMALL = ["bicg", "mvt"]


def result_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


def stream_by_name(programs, config, executor=None, store=None, n_jobs=1):
    """``(program_name, result)`` pairs of one-config jobs, completion order."""
    jobs = [(program, config) for program in programs]
    for index, result in stream_analyses(
        jobs, executor=executor, n_jobs=n_jobs, store=store
    ):
        yield programs[index].name, result


def solo_results(programs, config):
    """The reference: each program derived alone, serially, in input order."""
    return [Analyzer(config).analyze(program) for program in programs]


def batch_task_count(programs, config) -> int:
    return sum(len(plan_program(program, config).tasks) for program in programs)


class RecordingExecutor(SerialExecutor):
    """Serial executor that records the order tasks were submitted in."""

    def __init__(self):
        self.seen: list[tuple] = []

    def submit(self, fn, item):
        self.seen.append((item[0].name, item[2].task_id))
        return super().submit(fn, item)


class InterruptingExecutor(SerialExecutor):
    """Simulates Ctrl-C: completes ``after`` tasks, then raises
    KeyboardInterrupt out of the next ``submit``."""

    def __init__(self, after: int):
        self.after = after
        self.submitted = 0

    def submit(self, fn, item):
        if self.submitted >= self.after:
            raise KeyboardInterrupt
        self.submitted += 1
        return super().submit(fn, item)


class TestStreamingSemantics:
    def test_small_program_yields_before_batch_finishes(self):
        """The slowest-program-first adversary: the batch *starts* with the
        big kernel, yet the stream's first result arrives while the big
        kernel's tasks are still outstanding."""
        programs = [get_kernel(name).program for name in [BIG] + SMALL]
        config = AnalysisConfig(max_depth=1)
        total_tasks = batch_task_count(programs, config)

        reset_task_derivation_count()
        stream = stream_by_name(programs, config)
        first_name, first_result = next(stream)
        executed_at_first_yield = task_derivation_count()

        assert executed_at_first_yield < total_tasks, (
            "first result must stream out before the whole batch executed"
        )
        # Priority rule: the first completion is one of the small programs,
        # not the big kernel the batch led with.
        assert first_name in SMALL
        remaining = dict(stream)
        assert set(remaining) | {first_name} == {BIG, *SMALL}

    def test_priority_hands_small_programs_over_first(self):
        """Fewest-remaining-tasks-per-program first: every small program's
        tasks are scheduled before the big program's."""
        programs = [get_kernel(name).program for name in [BIG] + SMALL]
        config = AnalysisConfig(max_depth=1)
        recorder = RecordingExecutor()
        list(stream_by_name(programs, config, executor=recorder))

        big_positions = [
            position for position, (name, _) in enumerate(recorder.seen) if name == BIG
        ]
        small_positions = [
            position for position, (name, _) in enumerate(recorder.seen) if name != BIG
        ]
        assert small_positions and big_positions
        assert max(small_positions) < min(big_positions)

    def test_adversarial_completion_order_streams_and_matches_solo(self):
        """Reverse-completion adversary: results stream in an order that
        differs from the input order, yet collected content is byte-equal
        to each program derived alone."""
        programs = [get_kernel(name).program for name in [BIG] + SMALL]
        config = AnalysisConfig(max_depth=1)
        adversary = reversed_executor(batch_task_count(programs, config))
        streamed = list(stream_by_name(programs, config, executor=adversary))
        # Under reversed completions the big lead kernel lands first and the
        # highest-priority small kernel last — a completion order that
        # differs from the input order end to end.
        assert [name for name, _ in streamed] != [p.name for p in programs]
        by_name = dict(streamed)
        for program, expected in zip(programs, solo_results(programs, config)):
            assert result_bytes(by_name[program.name]) == result_bytes(expected)

    def test_warm_programs_yield_immediately_without_tasks(self, tmp_path):
        store = BoundStore(tmp_path)
        programs = [get_kernel(name).program for name in SMALL]
        config = AnalysisConfig(max_depth=1)
        cold = dict(stream_by_name(programs, config, store=store))

        reset_task_derivation_count()
        warm = list(stream_by_name(programs, config, store=store))
        assert task_derivation_count() == 0
        assert [name for name, _ in warm] == [p.name for p in programs]
        for name, warm_result in warm:
            assert result_bytes(warm_result) == result_bytes(cold[name])

    def test_schedule_work_yields_task_results_in_plan_order(self):
        config = AnalysisConfig(max_depth=1)
        plans = [
            plan_program(get_kernel(name).program, config) for name in [BIG] + SMALL
        ]
        groups = [
            [WorkItem((plan.program, plan.config, task, plan.fingerprint)) for task in plan.tasks]
            for plan in plans
        ]
        adversary = reversed_executor(sum(len(plan.tasks) for plan in plans))
        seen = {}
        for plan_index, task_results in schedule_work(
            groups, _execute_payload, executor=adversary
        ):
            seen[plan_index] = task_results
        assert sorted(seen) == [0, 1, 2]
        for plan_index, plan in enumerate(plans):
            assert [r.task for r in seen[plan_index]] == list(plan.tasks)

    def test_mixed_cached_and_fresh_batch_keeps_job_indices(self, tmp_path):
        store = BoundStore(tmp_path)
        config = AnalysisConfig(max_depth=0)
        Analyzer(config, store=store).analyze(get_kernel("gemm").program)
        programs = [get_kernel(name).program for name in ["atax", "gemm", "mvt"]]
        streamed = list(stream_analyses([(p, config) for p in programs], store=store))
        # The warm job streams first, under its own index.
        assert streamed[0][0] == 1
        assert sorted(index for index, _ in streamed) == [0, 1, 2]
        for index, result in streamed:
            assert result.program_name == programs[index].name

    def test_duplicate_programs_fan_out_one_derivation(self):
        program = get_kernel("gemm").program
        config = AnalysisConfig(max_depth=0)
        reset_task_derivation_count()
        streamed = list(stream_by_name([program, program], config))
        assert len(streamed) == 2
        assert task_derivation_count() == len(plan_program(program, config).tasks)
        assert result_bytes(streamed[0][1]) == result_bytes(streamed[1][1])


class TestStreamEqualsSolo:
    @pytest.mark.parametrize("kernel", [BIG] + SMALL)
    def test_byte_equality_per_kernel_reversed_tasks(self, kernel):
        """A program's tasks landing in reverse order combine to the bytes
        of its serial derivation: combine follows plan order."""
        program = get_kernel(kernel).program
        config = AnalysisConfig(max_depth=1)
        adversary = reversed_executor(batch_task_count([program], config))
        ((name, streamed),) = list(stream_by_name([program], config, executor=adversary))
        (solo,) = solo_results([program], config)
        assert name == program.name
        assert result_bytes(streamed) == result_bytes(solo)

    def test_byte_equality_threaded_batch(self):
        programs = [get_kernel(name).program for name in [BIG] + SMALL]
        config = AnalysisConfig(max_depth=1)
        streamed = dict(stream_by_name(programs, config, executor="thread", n_jobs=4))
        for program, expected in zip(programs, solo_results(programs, config)):
            assert result_bytes(streamed[program.name]) == result_bytes(expected)

    def test_suite_stream_collects_to_suite_results(self, tmp_path):
        names = ["gemm", "atax", BIG]
        streamed = {
            analysis.spec.name: analysis
            for analysis in analyze_suite_stream(names, store=BoundStore(tmp_path))
        }
        assert set(streamed) == set(names)
        barrier = analyze_suite(names)
        for analysis in barrier:
            assert result_bytes(streamed[analysis.spec.name].result) == result_bytes(
                analysis.result
            )


class TestEventLoopExecutors:
    def test_batch_runs_on_the_call_executor_whatever_the_store_holds(
        self, tmp_path, monkeypatch
    ):
        """The executor and its worker count come from the call, once per
        batch: which job happens to miss the store first cannot change
        them."""
        from repro.analysis import executor as executor_module

        resolved = []
        real = executor_module.resolve_executor

        def spy(executor=None, n_jobs=1):
            resolved.append(real(executor, n_jobs))
            return resolved[-1]

        monkeypatch.setattr(executor_module, "resolve_executor", spy)
        store = BoundStore(tmp_path)
        config = AnalysisConfig(max_depth=0)
        atax, bicg = get_kernel("atax").program, get_kernel("bicg").program
        Analyzer(config, store=store).analyze(atax)  # atax is warm, bicg cold
        resolved.clear()
        jobs = [(atax, config), (bicg, config)]
        assert len(list(stream_analyses(jobs, executor="thread", n_jobs=2, store=store))) == 2
        assert [(type(e), e.n_jobs) for e in resolved] == [(ThreadExecutor, 2)]

    def test_thread_pool_event_loop_streams_results(self):
        """The submit-based event loop (bounded in-flight set, priority
        refill) produces the same bytes as serial for a mixed batch."""
        programs = [get_kernel(name).program for name in [BIG] + SMALL]
        config = AnalysisConfig(max_depth=1)
        with ThreadExecutor(n_jobs=3) as executor:
            streamed = dict(stream_by_name(programs, config, executor=executor))
        for program, expected in zip(programs, solo_results(programs, config)):
            assert result_bytes(streamed[program.name]) == result_bytes(expected)

    def test_event_loop_failure_cancels_queued_tasks(self):
        """A failing task aborts the stream and cancels queued futures
        instead of grinding through the rest of the batch."""
        calls = []

        def flaky(payload):
            calls.append(payload[2].task_id)
            if len(calls) == 2:
                raise RuntimeError("boom")
            time.sleep(0.01)
            return _execute_payload(payload)

        config = AnalysisConfig(max_depth=1)
        jobs = [(get_kernel(name).program, config) for name in [BIG] + SMALL]
        total_tasks = batch_task_count([program for program, _ in jobs], config)

        executor = ThreadExecutor(n_jobs=1)
        # Substitute the payload runner via a tiny shim executor so the
        # failure happens inside the pool, after some successes.
        class Shim:
            name = "shim"
            n_jobs = 1

            def submit(self, fn, item):
                return executor.submit(flaky, item)

            def close(self):
                executor.close()

        with pytest.raises(RuntimeError, match="boom"):
            list(stream_analyses(jobs, executor=Shim()))
        assert len(calls) < total_tasks


class TestInterruptResume:
    def test_keyboard_interrupt_mid_suite_resumes_missing_tasks_only(self, tmp_path):
        """Ctrl-C mid-suite: finished tasks are already persisted, and the
        resumed run re-executes exactly the missing ones."""
        store = BoundStore(tmp_path)
        names = ["bicg", "mvt", BIG]
        configs = {
            name: AnalysisConfig(max_depth=get_kernel(name).max_depth) for name in names
        }
        total_tasks = sum(
            len(plan_program(get_kernel(name).program, configs[name]).tasks)
            for name in names
        )
        interrupted_after = 3
        assert interrupted_after < total_tasks

        with pytest.raises(KeyboardInterrupt):
            list(
                analyze_suite_stream(
                    names, store=store, executor=InterruptingExecutor(interrupted_after)
                )
            )

        stats = store.stats()
        assert stats.kinds.get("task", 0) == interrupted_after
        # Streaming means a small kernel may have fully completed (and
        # stored its result) before the interrupt — but never all of them.
        assert stats.kinds.get("result", 0) < len(names)

        reset_task_derivation_count()
        resumed = analyze_suite(names, store=store)
        assert task_derivation_count() == total_tasks - interrupted_after

        baseline = analyze_suite(names)
        for resumed_analysis, base_analysis in zip(resumed, baseline):
            assert result_bytes(resumed_analysis.result) == result_bytes(
                base_analysis.result
            )

    def test_pool_close_cancels_queued_futures(self):
        """close() must cancel still-queued work (no orphan grinding): with
        one worker busy, the queued tasks never execute once close runs."""
        started = threading.Event()
        release = threading.Event()
        executed = []

        def task(index):
            executed.append(index)
            started.set()
            release.wait(timeout=10)
            return index

        executor = ThreadExecutor(n_jobs=1)
        first = executor.submit(task, 0)
        queued = [executor.submit(task, index) for index in (1, 2)]
        assert started.wait(timeout=10)

        closer = threading.Thread(target=executor.close)
        closer.start()
        # shutdown(cancel_futures=True) drains the queue before waiting on
        # the running task; wait for the cancellations, then release it.
        deadline = time.monotonic() + 10
        while not all(future.cancelled() for future in queued):
            assert time.monotonic() < deadline, "queued futures were not cancelled"
            time.sleep(0.005)
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert first.result() == 0
        assert executed == [0]


class TestStreamCounters:
    """Per-stream accounting: the concurrency-correctness substrate of the
    threaded service.  The module-global derivation_count() aggregates over
    every stream in the process; a StreamCounters instance threaded through
    one stream_analyses() call chain must count that stream's work alone."""

    @staticmethod
    def _jobs(names):
        config = AnalysisConfig(max_depth=0)
        return [(get_kernel(name).program, config) for name in names]

    def test_counters_scope_to_one_stream_under_interleaving(self):
        """Two interleaved streams: each counter sees only its own stream's
        derivations, while the global counter sees both.  The interleave is
        deterministic (generators advanced by hand), so with global-delta
        accounting stream 1 would observe stream 2's work — the exact bug
        the concurrent service hit."""
        counters_one, counters_two = StreamCounters(), StreamCounters()
        stream_one = stream_analyses(self._jobs(["gemm"]), counters=counters_one)
        stream_two = stream_analyses(
            self._jobs(["atax", "bicg"]), counters=counters_two
        )
        global_before = derivation_count()

        next(stream_one)          # stream 1 derives its single program ...
        results_two = list(stream_two)  # ... then stream 2 derives both of its
        assert list(stream_one) == []   # stream 1 finishes: nothing left

        assert counters_one.derivations == 1
        assert counters_two.derivations == 2
        assert len(results_two) == 2
        assert derivation_count() - global_before == 3

    def test_task_derivations_are_counted_per_stream(self):
        counters = StreamCounters()
        jobs = self._jobs(["gemm"])
        list(stream_analyses(jobs, counters=counters))
        assert counters.task_derivations == len(plan_program(*jobs[0]).tasks)
        assert counters.derivations == 1
        assert counters.simulations == 0

    def test_warm_stream_counts_zero(self, tmp_path):
        store = BoundStore(tmp_path / "store")
        jobs = self._jobs(["gemm"])
        cold = StreamCounters()
        list(stream_analyses(jobs, store=store, counters=cold))
        assert cold.derivations == 1

        warm = StreamCounters()
        results = list(stream_analyses(jobs, store=store, counters=warm))
        assert len(results) == 1
        assert warm.derivations == 0
        assert warm.task_derivations == 0

    def test_counters_are_thread_safe(self):
        counters = StreamCounters()
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            for _ in range(500):
                counters.add("derivations")
                counters.add("task_derivations", 2)
                counters.add("simulations", 3)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.derivations == 2000
        assert counters.task_derivations == 4000
        assert counters.simulations == 6000
