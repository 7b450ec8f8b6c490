"""Outside-in tracing: spans around the public entry points of each ``repro`` layer.

The wrappers live here, in the benchmark, not in the program: :func:`install`
replaces every binding of each entry point -- the defining module's name *and*
every ``from x import f`` alias in other ``repro`` modules, plus methods on
their classes -- with a wrapper that records a span.  Nothing in ``src/``
changes, so the untraced runs measure the program exactly as users run it.

Span model
----------
A span records its layer name, start, end, parent span, thread and run id.
Spans live in memory and are written out once, as Chrome trace-event JSON
(opens in Perfetto with no extra dependency), when the run ends.

* Re-entering a layer already open on the same thread opens no new span (the
  outermost entry owns the duration), the rule ``repro.perf`` uses too, so
  call counts of both are comparable.
* A generator entry point (``schedule_work``, ``handle_request``) is timed
  only while it runs: each resume opens a segment and each ``yield`` closes
  it, so the consumer's work between items is not charged to it.
* A layer's self time is its active time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter

#: Layer name -> public entry points, as ``module:attribute`` or
#: ``module:Class.method``.  Counter-only entries carry no span.
LAYERS = {
    "linalg.closure": ["repro.linalg.lattice:subspace_closure"],
    "sets.fm": [
        "repro.sets.fourier_motzkin:eliminate_variable",  # repro.rel calls it directly
        "repro.sets.fourier_motzkin:eliminate_variables",
        "repro.sets.fourier_motzkin:project_out",
        "repro.sets.fourier_motzkin:basic_set_is_empty",
        "repro.sets.fourier_motzkin:is_rationally_empty",
    ],
    "sets.count": [
        "repro.sets.counting:card",
        "repro.sets.counting:card_upper",
        "repro.sets.counting:card_basic",
        "repro.sets.counting:card_at",
    ],
    "rel.closure": [
        "repro.rel.closure:transitive_closure",
        "repro.rel.closure:graph_reachability",
        "repro.rel.closure:check_universal_reachability",
    ],
    "core.kpartition": ["repro.core.kpartition:statement_partition_bounds"],
    "core.wavefront": ["repro.core.wavefront:sub_param_q_by_wavefront"],
    "core.bounds": [
        "repro.core.bounds:asymptotic_leading",
        "repro.core.bounds:expression_degree",
        "repro.core.bounds:evaluate",
    ],
    "analysis.plan": ["repro.analysis.plan:plan_program"],
    "analysis.scheduler": ["repro.analysis.scheduler:schedule_work"],
    "analysis.store.get": [
        "repro.analysis.store:BoundStore.get",
        "repro.analysis.store:BoundStore.get_task",
        "repro.analysis.store:BoundStore.get_simulation",
    ],
    "analysis.store.put": [
        "repro.analysis.store:BoundStore.put",
        "repro.analysis.store:BoundStore.put_task",
        "repro.analysis.store:BoundStore.put_simulation",
    ],
    "service.request": ["repro.service:AnalysisService.handle_request"],
    "ir.cdag.expand": ["repro.ir.cdag:CDAG.expand"],
    "pebble.schedule": ["repro.pebble.schedules:tiled_schedule"],
    "pebble.sim": ["repro.pebble.cache:simulate_schedule"],
    "upper.search": ["repro.upper.search:search_upper_bounds"],
    "fuzz.generate": ["repro.fuzz.generator:random_program"],
    "fuzz.oracle": ["repro.fuzz.oracles:run_oracle"],
}

#: Entry points that are only counted (called ~10^5 times: a span each would
#: cost more than the work).
COUNTERS = {
    "linalg.subspace.ops": [
        "repro.linalg.subspace:Subspace.sum",
        "repro.linalg.subspace:Subspace.intersection",
    ],
}

#: Every module whose import makes the entry points above reachable.
MODULES = (
    "repro", "repro.polybench", "repro.upper", "repro.service", "repro.fuzz",
    "repro.analysis", "repro.core", "repro.pebble", "repro.rel", "repro.sets",
    "repro.linalg", "repro.ir",
)


class Span:
    __slots__ = ("name", "parent", "tid", "segments", "active", "child", "info")

    def __init__(self, name: str, parent: "Span | None", tid: int):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.segments: list[tuple[float, float]] = []  # (start, end) while running
        self.active = 0.0  # time the span was running (sum of segments)
        self.child = 0.0   # time covered by its direct children
        self.info = None   # layer-specific detail (e.g. oracle name)

    @property
    def self_s(self) -> float:
        return self.active - self.child


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def is_open(self, name: str) -> bool:
        return any(span.name == name for span in self._stack())

    def open(self, name: str, span: "Span | None" = None) -> Span:
        """Start (or, for a resumed generator span, continue) ``name``."""
        stack = self._stack()
        if span is None:
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            self.spans.append(span)
        now = perf_counter()
        span.segments.append((now, now))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        now = perf_counter()
        begin = span.segments[-1][0]
        span.segments[-1] = (begin, now)
        span.active += now - begin
        if span.parent is not None:
            span.parent.child += now - begin
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    # -- output -----------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: one complete ('X') event per span segment."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        pid = os.getpid()
        events = []
        for index, span in enumerate(self.spans):
            args = {"run": self.run_id, "span": index,
                    "parent": ids.get(id(span.parent)) if span.parent else None}
            if span.info is not None:
                args["info"] = span.info
            for begin, end in span.segments:
                events.append({
                    "name": span.name, "ph": "X", "pid": pid, "tid": span.tid,
                    "ts": round(begin * 1e6, 3), "dur": round((end - begin) * 1e6, 3),
                    "args": args,
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def summary(self) -> dict:
        """Per-layer calls, self time, active time and longest span, plus counters.

        ``threads`` holds each thread's summed self time: a window's
        unattributed time is its wall minus the self time of the thread that
        ran it (spans on other threads overlap it).
        """
        layers: dict[str, dict] = {}
        threads: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name = span.name if span.info is None else f"{span.name}.{span.info}"
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                             "max_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["total_s"] += span.active
            entry["max_s"] = max(entry["max_s"], span.active)
            threads[str(span.tid)] += span.self_s
        return {"layers": layers, "counts": dict(self.counts), "threads": dict(threads)}


    def start(self) -> float:
        self.enabled = True
        return perf_counter()

    def stop(self) -> float:
        self.enabled = False
        return perf_counter()

    def write_trace(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(self.chrome_trace(), stream)


# -- wrappers --------------------------------------------------------------------


def _span_wrapper(rec: Recorder, fn, name: str, before=None, after=None):
    if inspect.isgeneratorfunction(inspect.unwrap(fn)):
        @wraps(fn)
        def generator(*args, **kwargs):
            if not rec.enabled or rec.is_open(name):
                return (yield from fn(*args, **kwargs))
            inner = fn(*args, **kwargs)
            span = None
            try:
                value = None
                while True:
                    span = rec.open(name, span)
                    try:
                        item = inner.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        rec.close(span)
                    value = yield item
            finally:
                inner.close()
        return generator

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or rec.is_open(name):
            return fn(*args, **kwargs)
        state = before(rec, args, kwargs) if before is not None else None
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, span, args, kwargs, result, state)
        return result
    return wrapper


def _counter_wrapper(rec: Recorder, fn, name: str):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.enabled:
            rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# Per-layer hooks: counts measured where the work happens.

def _closure_after(rec, span, args, kwargs, result, state):
    """A closure that returns its lattice unchanged after the full deadline timed out."""
    from repro.linalg.lattice import DEFAULT_TIMEOUT_SECONDS

    timeout = kwargs.get("timeout_seconds", args[2] if len(args) > 2 else DEFAULT_TIMEOUT_SECONDS)
    _lattice, changed = result
    if not changed and span.active >= timeout:
        rec.counts["linalg.closure.timeouts"] += 1


def _store_get_after(rec, span, args, kwargs, result, state):
    rec.counts["analysis.store.get.hits"] += result is not None


def _expand_after(rec, span, args, kwargs, result, state):
    rec.counts["ir.cdag.expand.vertices"] += result.graph.number_of_nodes()


def _sim_after(rec, span, args, kwargs, result, state):
    schedule = kwargs.get("schedule", args[1] if len(args) > 1 else ())
    rec.counts["pebble.sim.ops"] += len(schedule)
    rec.counts["pebble.sim.runs"] += 1


def _search_before(rec, args, kwargs):
    from repro.upper.search import simulation_count

    return simulation_count(), rec.counts["pebble.sim.runs"]


def _search_after(rec, span, args, kwargs, result, state):
    """Attempted simulation cells (store misses) and those that really simulated;
    the rest were skipped as illegal tilings: wasted work."""
    from repro.upper.search import simulation_count

    attempted, simulated = state
    rec.counts["upper.search.simulations"] += simulation_count() - attempted
    rec.counts["upper.search.simulated"] += rec.counts["pebble.sim.runs"] - simulated


def _oracle_before(rec, args, kwargs):
    return kwargs.get("name", args[0] if args else "?")


def _oracle_after(rec, span, args, kwargs, result, state):
    span.info = state


HOOKS = {
    "repro.linalg.lattice:subspace_closure": (None, _closure_after),
    "repro.analysis.store:BoundStore.get": (None, _store_get_after),
    "repro.analysis.store:BoundStore.get_task": (None, _store_get_after),
    "repro.analysis.store:BoundStore.get_simulation": (None, _store_get_after),
    "repro.ir.cdag:CDAG.expand": (None, _expand_after),
    "repro.pebble.cache:simulate_schedule": (None, _sim_after),
    "repro.upper.search:search_upper_bounds": (_search_before, _search_after),
    "repro.fuzz.oracles:run_oracle": (_oracle_before, _oracle_after),
}


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(rec: Recorder) -> None:
    """Wrap every entry point in :data:`LAYERS` and :data:`COUNTERS` for ``rec``.

    Nothing is recorded until ``rec.start()``.
    """
    for module in MODULES:
        importlib.import_module(module)
    plan = [(name, target, False) for name, targets in LAYERS.items() for target in targets]
    plan += [(name, target, True) for name, targets in COUNTERS.items() for target in targets]
    for name, target, counter_only in plan:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        before, after = HOOKS.get(target, (None, None))

        def wrap(func):
            if counter_only:
                return _counter_wrapper(rec, func, name)
            return _span_wrapper(rec, func, name, before, after)

        if "." in attr:  # a method: patch it on its class
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(wrap(raw.__func__)))
            else:
                setattr(cls, method, wrap(raw))
        else:
            func = getattr(module, attr)
            _rebind(func, wrap(func))
