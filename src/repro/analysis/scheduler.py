"""Event-driven streaming scheduler: the *when* of every batch of work.

:func:`schedule_work` is the one engine behind derivation tasks
(:func:`repro.analysis.analyzer.stream_analyses`), the cache simulations of
the tiling search (:mod:`repro.upper.search`) and fuzz cases
(:mod:`repro.fuzz.runner`).  It schedules groups of :class:`WorkItem`\\ s —
a picklable payload plus an optional store key — through one event loop:

* every group's items enter a single **ready queue**;
* items are handed out in **priority order** — fewest unfinished items per
  group first (ties broken by group position, then item position, so
  scheduling is reproducible) — which drains small groups early instead of
  striping round-robin across the batch;
* a group is yielded the moment its **last item** lands, with its results
  listed **in item order** — so program 1's bound streams out while program
  30's tasks are still running, and the downstream combine is
  byte-identical on every executor and every scheduling.  Only the order
  *between* groups depends on completion order, and it never reaches a
  bound's content.

Every executor takes part the same way, through ``submit``: at most
``n_jobs`` items are in flight, refilled in priority order as completions
arrive (:func:`concurrent.futures.wait`).  The serial executor finishes each
future inside ``submit``, so with ``n_jobs == 1`` the loop runs the items
one at a time in priority order.

Memoisation: ``store_get(key)`` is looked up for every keyed item during
enqueue and returns the *decoded* value or ``None`` — decoding happens in the
:class:`~repro.analysis.store.BoundStore` read, which counts a hit only when
the entry decodes.  Groups fully satisfied by the store are yielded before
anything executes (this is what gives a warm service request
sub-millisecond turnaround), and freshly executed items are persisted one
by one through ``store_put`` as they complete, so an interrupted run resumes
from every finished item.

On any failure — an item raising, or the consumer abandoning the stream —
not-yet-started futures are cancelled, and an executor given by name (or
``None``) is closed through :func:`~repro.analysis.executor.lease_executor`
(pool ``close`` also cancels anything still queued), so a Ctrl-C'd run
leaves no orphan workers.

Work counters: :class:`StreamCounters` is the one counter object.  The
process-wide instance backs :func:`derivation_count`,
:func:`task_derivation_count` and :func:`repro.upper.simulation_count`; a
caller that must report its own work — a ``serve`` request, a
``repro suite`` run, a tightness report — passes its own instance down the
call chain, and :func:`count_work` bumps it *in addition to* the
process-wide one.  Counting happens on the requester side, also for work
that ran in a worker process, so the numbers mean the same thing on every
executor.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Iterator, NamedTuple, Sequence

from .executor import Executor, lease_executor


class StreamCounters:
    """Thread-safe counts of the work one call chain executed.

    ``derivations`` counts program derivations not served from the result
    store (task-level hits do not make one free: the plan and the combine
    still run), ``task_derivations`` the derivation tasks executed and
    ``simulations`` the cache simulations executed.  Store hits never count.
    An instance passed down one call chain counts only that chain's work,
    however many others run concurrently in the process.
    """

    __slots__ = ("_lock", "derivations", "task_derivations", "simulations")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.derivations = 0
        self.task_derivations = 0
        self.simulations = 0

    def add(self, name: str, count: int = 1) -> None:
        """Add ``count`` to the counter ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def reset(self, name: str) -> int:
        """Zero the counter ``name``; returns its prior value."""
        with self._lock:
            previous = getattr(self, name)
            setattr(self, name, 0)
        return previous


#: Every stream's work, process-wide.  Under a concurrent front-end two
#: overlapping streams both show up here, so "how much work did *this* call
#: do" must come from its own :class:`StreamCounters`, never from a
#: before/after delta of this instance.
PROCESS_COUNTERS = StreamCounters()


def count_work(name: str, counters: StreamCounters | None = None, count: int = 1) -> None:
    """Count work process-wide and, when given, on one call's own counters."""
    PROCESS_COUNTERS.add(name, count)
    if counters is not None:
        counters.add(name, count)


def derivation_count() -> int:
    """Number of full program derivations run since the last reset.

    Counts every plan→execute→combine pipeline run that was not served from
    the result-level store (task-level store hits inside a run do not make
    it free: the plan and combination still execute).
    """
    return PROCESS_COUNTERS.derivations


def reset_derivation_count() -> int:
    """Reset the process-wide derivation counter; returns the prior count."""
    return PROCESS_COUNTERS.reset("derivations")


def task_derivation_count() -> int:
    """Number of individual derivation tasks executed since the last reset.

    Task-level store hits do not count; tasks executed in worker threads or
    processes do (they are accounted on the requester side as their results
    arrive, so the granularity is identical across executors).
    """
    return PROCESS_COUNTERS.task_derivations


def reset_task_derivation_count() -> int:
    """Reset the process-wide task counter; returns the prior count."""
    return PROCESS_COUNTERS.reset("task_derivations")


class WorkItem(NamedTuple):
    """One schedulable unit of work inside a :func:`schedule_work` group.

    ``payload`` is what the executor's ``run`` callable receives (it must be
    picklable for process pools); ``key`` is the optional store key under
    which the item's result is memoised.
    """

    payload: object
    key: str | None = None


def schedule_work(
    groups: Sequence[Sequence[WorkItem]],
    run,
    executor: "Executor | str | None" = None,
    n_jobs: int = 1,
    store_get=None,
    store_put=None,
    on_executed=None,
) -> Iterator[tuple[int, list]]:
    """Stream ``(group_index, results)`` pairs in group-completion order.

    Every group's items enter one ready queue, items are handed out from the
    group with fewest unfinished items first (ties by group position, then
    item order), and a group is yielded the moment its last item lands with
    its results listed **in item order** — byte-deterministic on every
    executor and scheduling.

    Memoisation: an item with a ``key`` is looked up via ``store_get(key)``
    during enqueue — it returns the decoded result, or ``None`` for a miss —
    groups fully satisfied by the store are yielded first by ascending index
    without executing anything, and freshly executed results are persisted
    one by one via ``store_put(key, result)``.  ``on_executed()`` fires once
    per actually-executed item, on the requester side.

    ``executor`` and ``n_jobs`` go through
    :func:`~repro.analysis.executor.lease_executor`: a name or ``None`` is
    closed when the stream ends, errors, or is abandoned; a live instance
    stays the caller's to close.
    """
    groups = [list(group) for group in groups]
    if not groups:
        return
    executor, release = lease_executor(executor, n_jobs)
    try:
        yield from _run_event_loop(groups, run, executor, store_get, store_put, on_executed)
    finally:
        release()


def _run_event_loop(
    groups: list[list[WorkItem]],
    run,
    executor: Executor,
    store_get,
    store_put,
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
                stored = store_get(item.key)
                if stored is not None:
                    results[group_index][item_index] = stored
                    continue
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
            store_put(item.key, result)
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
        # the pool; the lease's release reaps the workers themselves.
        for future in in_flight:
            future.cancel()
        raise
