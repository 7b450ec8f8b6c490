"""Suite-level drivers: run IOLB over PolyBench and build the paper's tables.

* :func:`analyze_suite_stream` / :func:`analyze_suite` — run the derivation
  for registered kernels, each at its registered wavefront depth unless the
  caller overrides config fields;
* :func:`table1_rows` — reproduce Table 1 (OI upper bound vs. the paper's
  manually derived OI, with the tightness ratio);
* :func:`table2_rows` — reproduce Table 2 / Appendix C (complete and
  asymptotic lower-bound formulae);
* :func:`figure6_rows` — reproduce Figure 6 (numeric OI upper bound vs. the OI
  achieved by a tiled schedule on a cache simulator, against the machine
  balance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import sympy

from ..analysis import (
    AnalysisConfig,
    BoundStore,
    Executor,
    StreamCounters,
    stream_analyses,
)
from ..core import (
    IOBoundResult,
    PAPER_CACHE_WORDS,
    PAPER_MACHINE_BALANCE,
    classify,
)
from ..ir import CDAG, Vertex
from ..pebble import lexicographic_schedule, simulate_schedule, tiled_schedule
from .registry import KernelSpec, all_kernels, get_kernel


@dataclass
class KernelAnalysis:
    """Derivation result for one kernel, plus the paper's reference values."""

    spec: KernelSpec
    result: IOBoundResult

    @property
    def oi_upper(self) -> sympy.Expr:
        return self.result.oi_upper_bound()


def _kernel_config(spec: KernelSpec, **overrides) -> AnalysisConfig:
    """A kernel's config: the registered wavefront depth, then the overrides."""
    return AnalysisConfig(max_depth=spec.max_depth).replace(**overrides)


def analyze_suite_stream(
    names: Iterable[str] | None = None,
    n_jobs: int = 1,
    store: BoundStore | None = None,
    executor: "Executor | str | None" = None,
    counters: StreamCounters | None = None,
    **overrides,
) -> Iterator[KernelAnalysis]:
    """Stream suite results in **completion order**, one per requested kernel.

    Every kernel's derivation tasks — across per-kernel configurations
    (registered wavefront depths differ) — enter **one** event-driven
    scheduler ready queue over one shared executor, and a kernel's
    :class:`KernelAnalysis` is yielded the moment its last task lands: the
    first bounds stream out while later kernels are still deriving.
    Store-satisfied kernels stream out first without waiting on any
    derivation.  Results are byte-identical to :func:`analyze_suite`'s —
    only the iteration order differs.  ``executor`` (a name or a live
    :class:`~repro.analysis.Executor`) and ``n_jobs`` choose how the whole
    batch runs.  Each kernel derives under its registered wavefront depth,
    then ``overrides`` (:class:`~repro.analysis.AnalysisConfig` fields such
    as ``gamma=0.5`` or ``max_depth=0``).

    ``counters`` (a :class:`~repro.analysis.StreamCounters`) receives only
    *this* stream's derivation counts — what a concurrent caller such as the
    ``repro serve`` front-end must report per request, since the
    process-global :func:`~repro.analysis.derivation_count` aggregates over
    every stream running in the process at once.
    """
    specs = all_kernels() if names is None else [get_kernel(n) for n in names]
    # The scheduler leases the executor: a name or None is closed even on
    # early exit; a live instance stays the caller's to close.
    for index, result in stream_analyses(
        [(spec.program, _kernel_config(spec, **overrides)) for spec in specs],
        executor=executor,
        n_jobs=n_jobs,
        store=store,
        counters=counters,
    ):
        yield KernelAnalysis(spec=specs[index], result=result)


def analyze_suite(
    names: Iterable[str] | None = None,
    n_jobs: int = 1,
    store: BoundStore | None = None,
    executor: "Executor | str | None" = None,
    **overrides,
) -> list[KernelAnalysis]:
    """Run the derivation over the whole suite (or a subset).

    The request-order collector over :func:`analyze_suite_stream`: all
    kernels' derivation tasks flow through a single work queue of threads or
    worker processes — with ``n_jobs > 1`` and/or an ``executor`` (a name or
    a live :class:`~repro.analysis.Executor`) — and the collected list
    follows the requested kernel order.  Passing a
    :class:`~repro.analysis.BoundStore` memoises every derivation
    persistently — a warm second suite run does zero derivations.
    """
    specs = all_kernels() if names is None else [get_kernel(n) for n in names]
    analyses: dict[str, KernelAnalysis] = {}
    for analysis in analyze_suite_stream(
        names, n_jobs=n_jobs, store=store, executor=executor, **overrides
    ):
        analyses[analysis.spec.name] = analysis
    return [analyses[spec.name] for spec in specs]


def table1_rows(analyses: Iterable[KernelAnalysis]) -> list[dict[str, object]]:
    """Rows of Table 1: input size, #ops, OI_up (ours and paper's), OI_manual."""
    rows = []
    for analysis in analyses:
        spec = analysis.spec
        rows.append({
            "kernel": spec.name,
            "category": spec.category,
            "input_size": sympy.sstr(analysis.result.input_size),
            "ops": sympy.sstr(analysis.result.total_flops),
            "OI_up (repro)": sympy.sstr(analysis.oi_upper),
            "OI_up (paper)": spec.paper_oi_upper,
            "OI_manual (paper)": spec.paper_oi_manual,
        })
    return rows


def table2_rows(analyses: Iterable[KernelAnalysis]) -> list[dict[str, object]]:
    """Rows of Table 2 / Appendix C: complete and asymptotic Q_low formulae."""
    rows = []
    for analysis in analyses:
        rows.append({
            "kernel": analysis.spec.name,
            "Q_low (complete)": sympy.sstr(analysis.result.expression),
            "Q_low (asymptotic)": sympy.sstr(analysis.result.asymptotic),
        })
    return rows


def figure6_rows(
    analyses: Iterable[KernelAnalysis],
    machine_balance: float = PAPER_MACHINE_BALANCE,
    cache_words: int = PAPER_CACHE_WORDS,
    simulate: bool = False,
    simulation_instances: Mapping[str, Mapping[str, int]] | None = None,
    simulation_cache: int = 64,
) -> list[dict[str, object]]:
    """Rows of Figure 6: numeric OI_up vs. achieved OI vs. machine balance.

    The OI upper bound is evaluated at the kernel's LARGE instance with the
    paper's 256 kB cache.  When ``simulate`` is true, a tiled schedule of a
    *small* instance is run through the LRU cache simulator to obtain an
    achieved OI (the PLuTo/Dinero stand-in); the small instance and cache keep
    the CDAG expansion tractable, and only the classification against the
    machine balance is meant to be compared with the paper.
    """
    rows = []
    for analysis in analyses:
        spec = analysis.spec
        instance = dict(spec.large_instance)
        instance["S"] = cache_words
        oi_up = analysis.result.evaluate_oi_upper(instance)

        oi_achieved = None
        if simulate:
            small = dict((simulation_instances or {}).get(spec.name, _shrink(spec.large_instance)))
            oi_achieved = simulate_tiled_oi(spec, small, simulation_cache)

        rows.append({
            "kernel": spec.name,
            "OI_up": round(oi_up, 2),
            "OI_achieved": None if oi_achieved is None else round(oi_achieved, 2),
            "MB": machine_balance,
            "class": classify(oi_up, oi_achieved, machine_balance).value,
        })
    return rows


def simulate_tiled_oi(spec: KernelSpec, instance: Mapping[str, int], cache: int) -> float | None:
    """Achieved OI of a tiled schedule on the LRU cache simulator."""
    tile = max(2, int(round(cache ** 0.5 / 2)))
    tile_sizes = {
        name: tuple(tile for _ in statement.dims)
        for name, statement in spec.program.statements.items()
    }
    return _simulated_oi(spec, instance, cache, lambda cdag: tiled_schedule(cdag, tile_sizes))


def untiled_oi(spec: KernelSpec, instance: Mapping[str, int], cache: int) -> float | None:
    """Achieved OI of the untiled (program-order) schedule — the baseline."""
    return _simulated_oi(spec, instance, cache, lexicographic_schedule)


def _simulated_oi(
    spec: KernelSpec,
    instance: Mapping[str, int],
    cache: int,
    schedule_for: Callable[[CDAG], Sequence[Vertex]],
) -> float | None:
    """Flops over LRU loads of ``schedule_for(cdag)`` at ``instance``.

    Returns None when the kernel's CDAG cannot be expanded at the requested
    instance (e.g. parameters too small for the dependence pattern), has
    nothing to compute, or does not fit the cache.
    """
    try:
        cdag = CDAG.expand(spec.program, instance)
    except Exception:
        return None
    if not cdag.compute:
        return None
    try:
        result = simulate_schedule(cdag, schedule_for(cdag), cache, policy="lru")
    except ValueError:
        return None
    # A valid schedule is a permutation of the compute vertices.
    return cdag.flops / max(result.loads, 1)


def _shrink(instance: Mapping[str, int], target: int = 12) -> dict[str, int]:
    """Scale a LARGE instance down to something an explicit CDAG can hold."""
    return {name: min(int(value), target) for name, value in instance.items()}
