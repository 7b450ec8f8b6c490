"""The tightness report: lower bound and simulated upper bound, side by side.

``python -m repro report`` is the automated Sec. 8.2 / Table 2 experiment:
for each kernel it derives (or loads) the parametric lower bound
``Q_low(S, params)``, evaluates it at a small concrete instance, runs the
tiling search of :mod:`repro.upper.search` at the same instance and cache
size, and prints both sides with their ratio — ``tightness = Q_up / Q_low``,
1.0 meaning the sandwich closed.  Both sides share one executor (leased
through :func:`~repro.analysis.executor.lease_executor`), one store and one
per-report :class:`~repro.analysis.StreamCounters`, so a warm report rerun
performs zero derivations *and* zero simulations, and the counts embedded in
the JSON document are this report's own work — never a delta of the
process-wide counters, which other concurrent work would inflate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import sympy

from ..analysis import BoundStore, Executor, StreamCounters, lease_executor
from ..analysis.config import check_instance
from ..polybench.registry import all_kernels, get_kernel
from ..polybench.suite import _shrink, analyze_suite_stream
from .result import TileSimulation, UpperBoundResult
from .search import check_sizes, search_upper_bounds

REPORT_SCHEMA = 1

#: Default edge length the LARGE instances are shrunk to before expansion —
#: small enough that every kernel's explicit CDAG stays tractable.
DEFAULT_INSTANCE_TARGET = 12


@dataclass
class TightnessRow:
    """One kernel's sandwich: parametric lower bound vs. simulated upper."""

    kernel: str
    category: str
    instance: dict[str, int]
    lower_asymptotic: str
    lower_value: float
    oi_upper_bound: float
    upper: UpperBoundResult | None
    error: str | None = None

    @property
    def best(self) -> TileSimulation | None:
        return None if self.upper is None else self.upper.best

    @property
    def upper_loads(self) -> int | None:
        best = self.best
        return None if best is None else best.loads

    @property
    def tightness(self) -> float | None:
        """Q_up / Q_low at the instance (>= 1; 1.0 means the sandwich closed)."""
        if self.upper_loads is None:
            return None
        return self.upper_loads / max(self.lower_value, 1.0)

    @property
    def achieved_oi(self) -> float | None:
        best = self.best
        return None if best is None else best.achieved_oi()

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "category": self.category,
            "instance": dict(self.instance),
            "lower_asymptotic": self.lower_asymptotic,
            "lower_value": self.lower_value,
            "oi_upper_bound": self.oi_upper_bound,
            "upper": None if self.upper is None else self.upper.to_dict(),
            "error": self.error,
            # Derived conveniences for JSON consumers (ignored by from_dict).
            "upper_loads": self.upper_loads,
            "tightness": self.tightness,
            "achieved_oi": self.achieved_oi,
            "tile_shape": None if self.best is None else list(self.best.shape),
            "policy": None if self.best is None else self.best.policy,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TightnessRow":
        upper = payload.get("upper")
        return cls(
            kernel=str(payload["kernel"]),
            category=str(payload.get("category", "")),
            instance={str(k): int(v) for k, v in dict(payload.get("instance", {})).items()},
            lower_asymptotic=str(payload.get("lower_asymptotic", "")),
            lower_value=float(payload.get("lower_value", 0.0)),
            oi_upper_bound=float(payload.get("oi_upper_bound", 0.0)),
            upper=None if upper is None else UpperBoundResult.from_dict(upper),
            error=payload.get("error"),
        )


@dataclass
class TightnessReport:
    """The whole report plus the work it cost (for warm-rerun assertions)."""

    cache_words: int
    rows: list[TightnessRow] = field(default_factory=list)
    derivations: int = 0
    simulations: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "cache_words": self.cache_words,
            "derivations": self.derivations,
            "simulations": self.simulations,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TightnessReport":
        return cls(
            cache_words=int(payload["cache_words"]),
            rows=[TightnessRow.from_dict(row) for row in payload.get("rows", [])],
            derivations=int(payload.get("derivations", 0)),
            simulations=int(payload.get("simulations", 0)),
        )

    def format_table(self) -> str:
        """Fixed-width text table, one row per kernel."""
        headers = [
            "kernel", "Q_low (asymptotic)", "Q_low@inst", "Q_up (loads)",
            "tile", "policy", "OI_ach", "OI_up", "tightness",
        ]
        body = []
        for row in self.rows:
            if row.error is not None or row.best is None:
                reason = row.error or "no legal simulation"
                body.append([
                    row.kernel, row.lower_asymptotic, _num(row.lower_value),
                    f"({reason})", "-", "-", "-", _num(row.oi_upper_bound), "-",
                ])
                continue
            best = row.best
            shape = "x".join(str(edge) for edge in best.shape)
            if best.used_fallback:
                shape = "untiled"
            body.append([
                row.kernel,
                row.lower_asymptotic,
                _num(row.lower_value),
                str(best.loads),
                shape,
                best.policy,
                _num(row.achieved_oi),
                _num(row.oi_upper_bound),
                _num(row.tightness),
            ])
        widths = [
            max(len(headers[column]), *(len(line[column]) for line in body)) if body
            else len(headers[column])
            for column in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(width) for header, width in zip(headers, widths)).rstrip()
        ]
        for line in body:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            )
        return "\n".join(lines)


def _num(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}"


def tightness_report(
    names: Iterable[str] | None = None,
    cache_words: int = 64,
    instance: Mapping[str, int] | None = None,
    store: BoundStore | None = None,
    executor: "Executor | str | None" = None,
    n_jobs: int = 1,
    max_candidates: int = 64,
    target: int = DEFAULT_INSTANCE_TARGET,
) -> TightnessReport:
    """Build the tightness report for a set of kernels (default: all).

    Lower bounds come from the ordinary derivation pipeline
    (:func:`~repro.polybench.suite.analyze_suite_stream`, with each kernel's
    registered wavefront depth); upper bounds from the tiling search at the
    kernel's LARGE instance shrunk to ``target`` (overridable per parameter
    via ``instance``).  Both sides share one ``store`` and one executor, so
    warm reruns cost zero derivations and zero simulations — the report
    records both counts, of its own work only.  An ``instance`` entry
    applies to the kernels that have that parameter, so one mapping serves
    several kernels.  Sizes and instance values below 1 raise ``ValueError``
    before any work.
    """
    check_sizes(cache_words=cache_words, max_candidates=max_candidates, target=target)
    instance = check_instance(instance or {})
    specs = all_kernels() if names is None else [get_kernel(name) for name in names]
    counters = StreamCounters()
    executor, release = lease_executor(executor, n_jobs)
    try:
        analyses = {
            analysis.spec.name: analysis
            for analysis in analyze_suite_stream(
                [spec.name for spec in specs],
                store=store,
                executor=executor,
                counters=counters,
            )
        }
        instances = []
        for spec in specs:
            small = _shrink(spec.large_instance, target)
            small.update({name: value for name, value in instance.items() if name in small})
            instances.append(small)
        uppers = search_upper_bounds(
            [(spec.program, small) for spec, small in zip(specs, instances)],
            cache_words=cache_words,
            max_candidates=max_candidates,
            executor=executor,
            store=store,
            counters=counters,
        )
    finally:
        release()

    rows = []
    for spec, small, upper in zip(specs, instances, uppers):
        analysis = analyses[spec.name]
        evaluation_point = {**small, "S": cache_words}
        try:
            lower_value = analysis.result.evaluate(evaluation_point)
            oi_upper = analysis.result.evaluate_oi_upper(evaluation_point)
        except Exception as error:  # un-evaluatable bound: report, don't die
            rows.append(TightnessRow(
                kernel=spec.name,
                category=spec.category,
                instance=small,
                lower_asymptotic=sympy.sstr(analysis.result.asymptotic),
                lower_value=0.0,
                oi_upper_bound=0.0,
                upper=upper,
                error=f"lower bound evaluation failed: {error}",
            ))
            continue
        rows.append(TightnessRow(
            kernel=spec.name,
            category=spec.category,
            instance=small,
            lower_asymptotic=sympy.sstr(analysis.result.asymptotic),
            lower_value=lower_value,
            oi_upper_bound=oi_upper,
            upper=upper,
            error=None if upper is not None else "CDAG expansion failed",
        ))
    return TightnessReport(
        cache_words=cache_words,
        rows=rows,
        derivations=counters.derivations,
        simulations=counters.simulations,
    )
