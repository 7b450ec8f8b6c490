"""Event-driven streaming scheduler: the *when* of the derivation pipeline.

:mod:`repro.analysis.plan` makes a derivation an explicit list of independent
tasks and :mod:`repro.analysis.executor` decides where they run; this module
decides **when** — and, crucially, when each program's *combine* step fires.
:func:`schedule_plans` runs one event loop over the union of every plan's
tasks, so no program waits for the whole batch before combining:

* all tasks of all plans enter a single **ready queue**;
* workers pull tasks in **priority order** — fewest-remaining-tasks-per-program
  first (ties broken by plan position, then task position, so scheduling is
  reproducible) — which drains small programs early instead of striping
  round-robin across the batch;
* each plan's results are collected as its tasks land, and the moment a
  plan's **last task** completes the plan is yielded to the caller — so
  program 1's bound streams out while program 30's tasks are still running.

Determinism is inherited from the plan layer, not re-derived here: a plan's
task results are yielded **in plan order** whatever order they completed in,
so combining a yielded plan produces byte-identical bounds on every executor
and every scheduling (the CI-enforced invariant of PR 4).  The only thing
that varies across schedulers is the order *between* plans — completion
order by construction — which never reaches a bound's content.

Every executor takes part the same way, through ``submit``: at most
``n_jobs`` tasks are in flight, refilled in priority order as completions
arrive (:func:`concurrent.futures.wait`).  The serial executor finishes each
future inside ``submit``, so with ``n_jobs == 1`` the loop runs the tasks one
at a time in priority order and fires each plan's combine as its last task
lands.  A ``store`` short-circuits the loop: tasks already present are
reloaded during enqueue, plans that become complete without executing
anything are yielded immediately (this is what gives a warm service request
sub-millisecond turnaround), and freshly executed tasks are persisted one by
one as they complete, so an interrupted run resumes from every finished
task.

On any failure — a task raising, or the consumer abandoning the stream —
not-yet-started futures are cancelled and owned executors are closed
(:meth:`~repro.analysis.executor._PoolExecutor.close` also cancels anything
still queued in the pool), so a Ctrl-C'd run leaves no orphan workers.

The event loop itself is generic: :func:`schedule_work` schedules groups of
:class:`WorkItem`\\ s — any picklable payload plus an optional store key —
and :func:`schedule_plans` is its derivation adapter.  The tiling search of
:mod:`repro.upper.search` reuses the same engine for cache simulations, so
upper-bound searches parallelise, memoise and resume exactly like
derivations do.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Iterator, Sequence

from .executor import Executor, resolve_executor
from .plan import DerivationPlan, TaskResult, dfg_for
from .store import BoundStore
from .strategies import get_strategy

# -- derivation counters ------------------------------------------------------
#
# Two granularities.  The *program* counter backs the warm-store invariant
# (a warm suite run performs zero derivations); the *task* counter backs
# resume tests (a half-finished run re-executes only the missing tasks).
# Both are counted on the requester side — also for tasks that ran in a
# worker process — so the numbers mean the same thing on every executor.
#
# ``_PROCESS_COUNTERS`` is PROCESS-GLOBAL: under a concurrent front-end (the
# threaded ``repro serve``) two overlapping streams each read the combined
# total, so "how much work did *this* stream do" must come from a
# per-stream :class:`StreamCounters` threaded through the call chain
# instead (``schedule_plans(counters=...)`` → ``stream_analyses`` →
# ``analyze_suite_stream``).  The global instance keeps backing the
# single-stream CLI/test invariants.


class StreamCounters:
    """Thread-safe work counters scoped to one analysis stream.

    An instance passed down one ``schedule_plans``/``stream_analyses`` call
    chain counts only that stream's derivations, however many other streams
    are running concurrently in the process — which is what a per-request
    ``done`` event must report.  Counting happens *in addition to* the
    process-global counters, never instead of them.
    """

    __slots__ = ("_lock", "_derivations", "_task_derivations")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._derivations = 0
        self._task_derivations = 0

    @property
    def derivations(self) -> int:
        """Full program derivations this stream performed (store hits excluded)."""
        return self._derivations

    @property
    def task_derivations(self) -> int:
        """Individual derivation tasks this stream executed (store hits excluded)."""
        return self._task_derivations

    def count_derivation(self) -> None:
        with self._lock:
            self._derivations += 1

    def count_task_derivations(self, count: int = 1) -> None:
        with self._lock:
            self._task_derivations += count

    def reset_derivations(self) -> int:
        """Zero the program counter; returns its prior value."""
        with self._lock:
            previous, self._derivations = self._derivations, 0
        return previous

    def reset_task_derivations(self) -> int:
        """Zero the task counter; returns its prior value."""
        with self._lock:
            previous, self._task_derivations = self._task_derivations, 0
        return previous


_PROCESS_COUNTERS = StreamCounters()


def derivation_count() -> int:
    """Number of full program derivations run since the last reset.

    Counts every plan→execute→combine pipeline run that was not served from
    the result-level store (task-level store hits inside a run do not make
    it free: the plan and combination still execute).
    """
    return _PROCESS_COUNTERS.derivations


def reset_derivation_count() -> int:
    """Reset the process-wide derivation counter; returns the prior count."""
    return _PROCESS_COUNTERS.reset_derivations()


def task_derivation_count() -> int:
    """Number of individual derivation tasks executed since the last reset.

    Task-level store hits do not count; tasks executed in worker threads or
    processes do (they are accounted on the requester side as their results
    arrive, so the granularity is identical across executors).
    """
    return _PROCESS_COUNTERS.task_derivations


def reset_task_derivation_count() -> int:
    """Reset the process-wide task counter; returns the prior count."""
    return _PROCESS_COUNTERS.reset_task_derivations()


def _count_program_derivation(counters: "StreamCounters | None" = None) -> None:
    _PROCESS_COUNTERS.count_derivation()
    if counters is not None:
        counters.count_derivation()


def _count_task_derivations(count: int, counters: "StreamCounters | None" = None) -> None:
    _PROCESS_COUNTERS.count_task_derivations(count)
    if counters is not None:
        counters.count_task_derivations(count)


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
    return get_strategy(task.strategy).run_task(dfg, config, instance, task)


# -- the generic work scheduler -----------------------------------------------


class WorkItem:
    """One schedulable unit of work inside a :func:`schedule_work` group.

    ``payload`` is what the executor's ``run`` callable receives (it must be
    picklable for process pools); ``key`` is the optional store key under
    which the item's result is memoised; ``context`` rides along for the
    ``decode``/``encode`` hooks (e.g. the :class:`DerivationTask` a payload
    was built from), never crossing a process boundary.
    """

    __slots__ = ("payload", "key", "context")

    def __init__(self, payload: object, key: str | None = None, context: object = None):
        self.payload = payload
        self.key = key
        self.context = context


def schedule_work(
    groups: Sequence[Sequence[WorkItem]],
    run,
    executor: "Executor | str | None" = None,
    n_jobs: int = 1,
    store_get=None,
    store_put=None,
    decode=None,
    encode=None,
    on_executed=None,
) -> Iterator[tuple[int, list]]:
    """Stream ``(group_index, results)`` pairs in group-completion order.

    The generic engine behind :func:`schedule_plans` (and the tiling search
    in :mod:`repro.upper.search`): every group's items enter one ready
    queue, workers pull items from the group with fewest unfinished items
    first (ties by group position, then item order), and a group is yielded
    the moment its last item lands with its results listed **in item
    order** — byte-deterministic on every executor and scheduling.

    Memoisation hooks: an item with a ``key`` is looked up via
    ``store_get(key)`` during enqueue (a hit is passed through
    ``decode(item, payload)``; decode raising ``KeyError``/``ValueError``/
    ``TypeError`` counts as a miss and the item re-executes), groups fully
    satisfied by the store are yielded first by ascending index without
    executing anything, and freshly executed results are persisted one by
    one via ``store_put(key, encode(item, result))``.  ``on_executed()``
    fires once per actually-executed item, on the requester side, so
    counters mean the same thing on every executor.

    An ``executor`` given by name (or ``None``, resolved with ``n_jobs``)
    is owned by the scheduler and closed when the stream ends, errors, or
    is abandoned; a live instance stays the caller's to close.
    """
    material = [list(group) for group in groups]
    if not material:
        return
    owns_executor = executor is None or isinstance(executor, str)
    resolved = resolve_executor(executor, n_jobs)
    try:
        yield from _run_event_loop(
            material, run, resolved, store_get, store_put, decode, encode, on_executed
        )
    finally:
        if owns_executor:
            resolved.close()


def _run_event_loop(
    groups: list[list[WorkItem]],
    run,
    executor: Executor,
    store_get,
    store_put,
    decode,
    encode,
    on_executed,
) -> Iterator[tuple[int, list]]:
    results: list[list] = [[None] * len(group) for group in groups]
    #: Per-group queues of not-yet-submitted item indices, in item order.
    pending: dict[int, list[int]] = {}
    #: Unfinished (queued or in-flight) item count per group — the priority.
    remaining = [0] * len(groups)

    for group_index, group in enumerate(groups):
        todo: list[int] = []
        for item_index, item in enumerate(group):
            if store_get is not None and item.key is not None:
                payload = store_get(item.key)
                if payload is not None:
                    try:
                        results[group_index][item_index] = (
                            decode(item, payload) if decode is not None else payload
                        )
                        continue
                    except (KeyError, ValueError, TypeError):
                        pass  # unreadable entry: fall through and re-execute
            todo.append(item_index)
        remaining[group_index] = len(todo)
        if todo:
            pending[group_index] = todo

    # Warm (or item-less) groups stream out before anything executes.
    for group_index in range(len(groups)):
        if remaining[group_index] == 0:
            yield group_index, list(results[group_index])
    if not pending:
        return

    def pick() -> tuple[int, int]:
        """Next item: from the group with fewest unfinished items."""
        group_index = min(pending, key=lambda index: (remaining[index], index))
        queue = pending[group_index]
        item_index = queue.pop(0)
        if not queue:
            del pending[group_index]
        return group_index, item_index

    def complete(group_index: int, item_index: int, result) -> bool:
        """Record a landed item; True when it was its group's last one."""
        results[group_index][item_index] = result
        if on_executed is not None:
            on_executed()
        item = groups[group_index][item_index]
        if store_put is not None and item.key is not None:
            # Persist immediately: completion order does not matter for
            # correctness, and a crash loses only in-flight items.
            store_put(item.key, encode(item, result) if encode is not None else result)
        remaining[group_index] -= 1
        return remaining[group_index] == 0

    # Keep at most n_jobs tasks in flight, refilling in (dynamic) priority
    # order as completions arrive.  A serial executor finishes each future
    # inside submit, so it runs one task per turn of the same loop.
    in_flight: dict[concurrent.futures.Future, tuple[int, int]] = {}
    try:
        while pending or in_flight:
            while pending and len(in_flight) < executor.n_jobs:
                group_index, item_index = pick()
                future = executor.submit(run, groups[group_index][item_index].payload)
                in_flight[future] = (group_index, item_index)
            done, _ = concurrent.futures.wait(
                in_flight, return_when=concurrent.futures.FIRST_COMPLETED
            )
            # A wave of simultaneous completions is processed in item-
            # coordinate order so group-completion order stays reproducible.
            for future in sorted(done, key=lambda item: in_flight[item]):
                group_index, item_index = in_flight.pop(future)
                if complete(group_index, item_index, future.result()):
                    yield group_index, list(results[group_index])
    except BaseException:
        # A failing item (or an abandoned consumer) must not strand queued
        # work: cancel whatever has not started.  Running tasks finish in
        # the pool; the owning close() below reaps the workers themselves.
        for future in in_flight:
            future.cancel()
        raise


# -- the derivation adapter ---------------------------------------------------


def schedule_plans(
    plans: Sequence[DerivationPlan],
    executor: "Executor | str | None" = None,
    n_jobs: int = 1,
    store: BoundStore | None = None,
    counters: "StreamCounters | None" = None,
) -> Iterator[tuple[int, list[TaskResult]]]:
    """Stream ``(plan_index, task_results)`` pairs in plan-completion order.

    Every plan's tasks enter one ready queue; a plan is yielded the moment
    its last task lands, with its results listed **in plan order** (so the
    downstream combine is byte-deterministic).  Plans fully satisfied by the
    ``store`` are yielded first, by ascending plan index, without executing
    anything.

    ``executor`` and ``n_jobs`` go straight to :func:`schedule_work`: a name
    (or ``None``) is resolved and owned there — closed, cancelling anything
    still queued, when the stream ends, errors, or is abandoned — while a
    live instance stays the caller's to close.

    Implemented as an adapter over the generic :func:`schedule_work` engine:
    one :class:`WorkItem` per :class:`DerivationTask`, memoised through the
    store's ``kind="task"`` entries and counted by
    :func:`task_derivation_count` — plus, when a per-stream
    :class:`StreamCounters` is given, on that stream's own counters (the
    concurrent service reports each request's work from these, since the
    process-global counters aggregate over all concurrent requests).
    """
    groups = [
        [
            WorkItem(
                payload=(plan.program, plan.config, task, plan.fingerprint),
                key=plan.task_key(task) if store is not None else None,
                context=task,
            )
            for task in plan.tasks
        ]
        for plan in plans
    ]
    yield from schedule_work(
        groups,
        _execute_payload,
        executor=executor,
        n_jobs=n_jobs,
        store_get=store.get_task if store is not None else None,
        store_put=store.put_task if store is not None else None,
        decode=lambda item, payload: TaskResult.from_dict(payload, task=item.context),
        encode=lambda item, task_result: task_result.to_dict(),
        on_executed=lambda: _count_task_derivations(1, counters),
    )
