"""Pluggable task executors: the *how* of the derivation pipeline.

A plan (:mod:`repro.analysis.plan`) is a list of independent tasks; an
:class:`Executor` decides where they run:

* :class:`SerialExecutor` — in-process, one after the other (the default);
* :class:`ThreadExecutor` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (cheap to start, shares the in-process DFG/relation caches; the work is
  pure Python, so the GIL bounds the speedup);
* :class:`ProcessExecutor` — a shared :class:`~concurrent.futures.ProcessPoolExecutor`
  (true parallelism; tasks, programs and configs are pickled to the
  workers).

Every executor runs work one way: :meth:`Executor.submit` takes one task and
returns a :class:`~concurrent.futures.Future`.  The scheduler
(:func:`repro.analysis.scheduler.schedule_work`) keeps at most ``n_jobs``
futures in flight, refills in priority order as they complete, and lists
each group's results in item order — which is what makes the final bound
independent of completion order.  :class:`SerialExecutor` runs the task
in-line and hands back an already-finished future, so sequential execution
is the ``n_jobs == 1`` case of the same event loop.

Pools are created lazily on the first ``submit`` (or by ``start``) and kept
open, so a whole suite batch (every kernel's tasks) flows through **one**
work queue instead of paying a pool startup per program; close an executor
explicitly (or use it as a context manager) when done.  ``close`` **cancels
anything still queued** before reaping the workers, so closing from an
interrupt handler (or a ``finally`` after Ctrl-C) leaves no orphan worker
processes grinding through abandoned tasks.  A pool broken by a dead worker
is replaced on the next ``submit``.

Trust boundary: the process executor runs the same code as the caller, in
child processes of the caller, with the caller's privileges — it is a
throughput device, not a sandbox.  Task payloads and results cross the
boundary by pickling; never feed a store you do not trust into a process
that unpickles from it.

Selection: :func:`resolve_executor` takes an explicit instance or name,
otherwise ``"process"`` when ``n_jobs > 1`` and ``"serial"`` otherwise.
The caller chooses at the call (``analyze(program, executor=..., n_jobs=...)``);
the :class:`~repro.analysis.AnalysisConfig` never does.

Lifetime: :func:`lease_executor` is the one ownership rule every entry point
(the scheduler, the tiling search, the tightness report, the service) goes
through — a name or ``None`` is resolved there and its release closes it; a
live instance stays the caller's, and its release does nothing.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from typing import Any, Callable, Protocol

#: Names accepted by :func:`resolve_executor`.
EXECUTOR_NAMES = ("serial", "thread", "process")


class Executor(Protocol):
    """Runs independent task payloads, one future per task."""

    #: Registry name (``"serial"``, ``"thread"``, ``"process"``, ...).
    name: str
    #: How many tasks the scheduler keeps in flight at once.
    n_jobs: int

    def submit(self, fn: Callable[[Any], Any], item: Any) -> concurrent.futures.Future:
        """Schedule ``fn(item)``, returning its future."""
        ...

    def start(self) -> None:
        """Start any workers now rather than on the first task."""
        ...

    def close(self) -> None:
        """Release any worker pool.  Idempotent."""
        ...


class _ExecutorBase:
    def start(self) -> None:  # pragma: no cover - trivial
        pass

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialExecutor(_ExecutorBase):
    """In-process sequential execution — the zero-dependency default."""

    name = "serial"
    n_jobs = 1

    def __init__(self, n_jobs: int = 1):
        # Accepts (and ignores) n_jobs so every executor constructs uniformly.
        pass

    def submit(self, fn, item) -> concurrent.futures.Future:
        """Run ``fn(item)`` now and return it as a finished future.

        An exception raised by ``fn`` propagates out of ``submit`` itself;
        the scheduler's failure path handles that the same way as a
        failed future.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_result(fn(item))
        return future


class _PoolExecutor(_ExecutorBase):
    """Shared lazily-created pool; subclasses pick the pool class."""

    _pool_factory: Callable[..., concurrent.futures.Executor]

    def __init__(self, n_jobs: int = 2):
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = n_jobs
        self._pool: concurrent.futures.Executor | None = None
        # One executor instance is shared by every request of the threaded
        # service: lazy creation and close must be atomic or two racing
        # threads each resolve a pool and one leaks unclosed.
        self._pool_lock = threading.Lock()

    def _ensure_pool(
        self, broken: concurrent.futures.Executor | None = None
    ) -> concurrent.futures.Executor:
        """The live pool: created on first use, replaced when ``broken``."""
        with self._pool_lock:
            if self._pool is None or self._pool is broken:
                self._pool = type(self)._pool_factory(max_workers=self.n_jobs)
            return self._pool

    def submit(self, fn, item) -> concurrent.futures.Future:
        """Schedule one task on the pool (created on first use).

        A pool broken by a dead worker fails the futures it held and
        refuses new work; the first ``submit`` after that replaces it, so a
        long-lived caller (the service) recovers instead of failing for
        good.
        """
        pool = self._ensure_pool()
        try:
            return pool.submit(fn, item)
        except concurrent.futures.BrokenExecutor:
            pool.shutdown(wait=False)
            return self._ensure_pool(broken=pool).submit(fn, item)

    def start(self) -> None:
        """Start the workers now instead of on the first task.

        A process pool forks its workers on its first ``submit``, so a
        caller about to start threads of its own calls this first: no
        thread of its can then hold a lock at the moment of the fork.
        """
        self.submit(abs, 0).result()

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # cancel_futures: a close racing live work (Ctrl-C mid-suite)
            # drops everything still queued instead of letting the workers
            # grind through abandoned tasks before the join.  The swap above
            # makes concurrent close() calls shut the pool down exactly once.
            pool.shutdown(wait=True, cancel_futures=True)


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution: shared memory, shared caches, GIL-bounded."""

    name = "thread"
    _pool_factory = staticmethod(concurrent.futures.ThreadPoolExecutor)


def _worker_signals() -> None:
    """Process-pool worker initializer: leave Ctrl-C to the parent, die with it.

    Ctrl-C at a terminal signals the whole process group.  The parent
    decides what stops — ``close`` cancels queued tasks and waits for
    running ones, and ``repro serve`` first drains its in-flight requests —
    so a worker must not die mid-task of a request that is draining.
    SIGTERM ends a worker outright, whatever handler the parent had
    installed when it forked.

    A parent that dies without closing its pool (SIGKILL, a crash) never
    tells its workers, and a worker blocked reading the call queue would
    wait forever.  A daemon thread waits on the parent's sentinel instead
    and ends the worker as soon as the parent is gone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution: true parallelism, pickled payloads."""

    name = "process"
    _pool_factory = staticmethod(
        functools.partial(concurrent.futures.ProcessPoolExecutor, initializer=_worker_signals)
    )


_EXECUTOR_CLASSES = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def resolve_executor(
    executor: "Executor | str | None" = None, n_jobs: int = 1
) -> Executor:
    """Normalise the ways callers can name an executor.

    ``executor`` may be an :class:`Executor` instance (passed through — the
    caller keeps ownership and ``n_jobs`` is ignored), one of
    :data:`EXECUTOR_NAMES`, or ``None``, which picks ``"process"`` when
    ``n_jobs > 1``, else ``"serial"``.  ``n_jobs < 1`` is a
    :class:`ValueError` whatever the executor.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if executor is not None and not isinstance(executor, str):
        return executor
    name = executor
    if name is None:
        name = "process" if n_jobs > 1 else "serial"
    try:
        cls = _EXECUTOR_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        ) from None
    return cls(n_jobs=n_jobs)


def lease_executor(
    executor: "Executor | str | None" = None, n_jobs: int = 1
) -> tuple[Executor, Callable[[], None]]:
    """Resolve ``executor`` and return it with the callable that releases it.

    A name or ``None`` is resolved here, and the release closes the pool it
    gets (cancelling anything still queued); a live instance stays the
    caller's to close, and its release does nothing.
    """
    resolved = resolve_executor(executor, n_jobs)
    if executor is None or isinstance(executor, str):
        return resolved, resolved.close
    return resolved, lambda: None
