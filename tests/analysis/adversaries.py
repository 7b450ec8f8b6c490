"""Deterministic completion-order adversaries for the executor protocol.

:class:`ScriptedExecutor` holds every submitted task until ``n_jobs`` of
them are queued, then completes them one at a time in a scripted order.
With ``n_jobs`` equal to the batch's task count the scheduler submits the
whole batch before its first ``wait``; each time it collects a finished
result, the next scripted future resolves.  No threads and no sleeps, so the
completion order is exact.
"""

from __future__ import annotations

import concurrent.futures
import random


class _ScriptedFuture(concurrent.futures.Future):
    def __init__(self, executor: "ScriptedExecutor"):
        super().__init__()
        self._executor = executor

    def result(self, timeout=None):
        try:
            return super().result(timeout)
        finally:
            self._executor._resolve_next()


class ScriptedExecutor:
    """Completes ``n_jobs`` submitted tasks in the order ``order(n_jobs)``
    (a permutation of submission indices)."""

    name = "scripted"

    def __init__(self, n_jobs: int, order):
        self.n_jobs = n_jobs
        self._order = order
        self._submitted: list[tuple] = []
        self._script: list[tuple] = []

    def submit(self, fn, item) -> concurrent.futures.Future:
        future = _ScriptedFuture(self)
        self._submitted.append((future, fn, item))
        if len(self._submitted) == self.n_jobs:
            self._script = [self._submitted[index] for index in self._order(self.n_jobs)]
            self._resolve_next()
        return future

    def _resolve_next(self) -> None:
        if not self._script:
            return
        future, fn, item = self._script.pop(0)
        try:
            future.set_result(fn(item))
        except Exception as error:
            future.set_exception(error)

    def close(self) -> None:
        pass


def reversed_executor(n_jobs: int) -> ScriptedExecutor:
    """Completes tasks in *reverse* submission order: the scheduler's
    lowest-priority work lands first."""
    return ScriptedExecutor(n_jobs, lambda count: list(reversed(range(count))))


def shuffled_executor(n_jobs: int, seed: int) -> ScriptedExecutor:
    """Completes tasks in a seeded random order."""

    def order(count: int) -> list[int]:
        indices = list(range(count))
        random.Random(seed).shuffle(indices)
        return indices

    return ScriptedExecutor(n_jobs, order)
