"""Analysis configuration: every knob of the derivation in one frozen object.

:class:`AnalysisConfig` bundles the knobs that ``derive_bounds`` takes as
keyword arguments, plus how the derivation is executed.  The wavefront
hypothesis check is not a knob: it is always the symbolic one.  A config is
immutable, so it can be shared between an :class:`~repro.analysis.Analyzer`
and its worker processes, compared for equality, folded into an on-disk
cache key (via the hashable :meth:`AnalysisConfig.signature`), and
round-tripped through JSON (for the CLI and for persisted suite runs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

#: Default heuristic instance: parameters are taken much larger than the cache
#: size, matching the asymptotic regime (S = o(params)) in which the bounds
#: are compared and reported.  The instance is only used to *rank* candidate
#: sub-bounds; the returned bound is valid for every parameter value.
DEFAULT_PARAM_VALUE = 10**5
DEFAULT_CACHE_SIZE = 256

#: Fraction of the statement domain a path must cover to be considered by the
#: K-partition search.
DEFAULT_GAMMA = 0.25

#: Number of statement-centric sub-CDAGs searched per statement.  The second
#: and later rounds work on the domain left after removing the previous
#: round's may-spill set; that set difference can shatter into many pieces, so
#: the default keeps a single round (all headline PolyBench results come from
#: round 0) and callers can raise it for programs that need the Sec. 4.2
#: same-statement decomposition.
DEFAULT_MAX_SUBCDAGS_PER_STATEMENT = 1

#: Strategies run by default, in order: K-partition bounds (Alg. 4) first,
#: wavefront bounds (Alg. 5) second — the order of Algorithm 6.
DEFAULT_STRATEGIES = ("kpartition", "wavefront")


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable bundle of every knob of the IOLB derivation (Algorithm 6).

    Attributes
    ----------
    instance:
        Heuristic parameter values used only to *rank* competing sub-bounds
        (the returned bound is valid for all parameter values).  Defaults to
        ``DEFAULT_PARAM_VALUE`` (10**5) for every program parameter and
        ``DEFAULT_CACHE_SIZE`` (256) for the cache size ``S``.
    gamma:
        Fraction of the statement domain a path must cover to be considered
        by the K-partition search.
    max_depth:
        Maximum loop-parametrisation depth explored by the wavefront method
        (0 disables wavefront bounds even when the strategy is listed).  A
        wavefront bound is kept only when the reachability hypothesis of
        Cor. 6.3 is certified symbolically on :mod:`repro.rel` relations.
    max_subcdags_per_statement:
        Sub-CDAG rounds searched per statement (Sec. 4.2 decomposition).
    strategies:
        Names of the :class:`~repro.analysis.strategies.BoundStrategy`
        implementations to run, in order.  Names are resolved against the
        strategy registry at analysis time, so strategies registered after
        the config was created are usable.
    executor:
        How derivation tasks are executed: ``"serial"`` (in-process, the
        default), ``"thread"`` (a shared thread pool), or ``"process"`` (a
        shared process pool).  ``None`` consults ``$REPRO_EXECUTOR`` and
        finally picks ``"process"`` when ``n_jobs > 1``, ``"serial"``
        otherwise — so ``n_jobs=8`` alone keeps the historical process
        fan-out behaviour.  Executors change *how fast* the analysis runs,
        never *what* it computes: results are combined in plan order, so
        they are byte-identical across executors.
    n_jobs:
        Worker count of the task executor (threads or processes).  1 means
        sequential in-process execution.
    cache_dir:
        Thin alias for a result store: when set, the
        :class:`~repro.analysis.Analyzer` memoises through a
        :class:`~repro.analysis.store.BoundStore` rooted at this directory
        (keyed by program fingerprint + config signature).  None means no
        implicit store — pass ``store=`` to the analyzer to use one (e.g.
        the shared default under ``$REPRO_STORE`` / ``~/.cache/repro``).
    """

    instance: Mapping[str, int] | None = None
    gamma: float = DEFAULT_GAMMA
    max_depth: int = 1
    max_subcdags_per_statement: int = DEFAULT_MAX_SUBCDAGS_PER_STATEMENT
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    executor: str | None = None
    n_jobs: int = 1
    cache_dir: str | Path | None = None

    def __post_init__(self) -> None:
        # Normalise sequence/str fields so equality and the cache signature
        # do not depend on how the caller spelled them.
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.instance is not None:
            object.__setattr__(
                self, "instance", {str(k): int(v) for k, v in dict(self.instance).items()}
            )
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_subcdags_per_statement < 1:
            raise ValueError(
                f"max_subcdags_per_statement must be >= 1, got {self.max_subcdags_per_statement}"
            )
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        from .executor import EXECUTOR_NAMES

        if self.executor is not None and self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES} (or None for "
                f"$REPRO_EXECUTOR / automatic), got {self.executor!r}"
            )
        if not self.strategies:
            raise ValueError("strategies must name at least one registered strategy")
        for name in self.strategies:
            if not isinstance(name, str) or not name:
                raise ValueError(f"strategy names must be non-empty strings, got {name!r}")

    # -- derivation helpers -------------------------------------------------

    def replace(self, **changes: Any) -> "AnalysisConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def heuristic_instance(self, params: tuple[str, ...]) -> dict[str, int]:
        """The concrete ranking instance for a program's parameters."""
        values = {p: DEFAULT_PARAM_VALUE for p in params}
        values["S"] = DEFAULT_CACHE_SIZE
        if self.instance:
            values.update({k: int(v) for k, v in self.instance.items()})
        return values

    def signature(self) -> tuple:
        """Hashable summary of every field that influences the *result*.

        ``executor``, ``n_jobs`` and ``cache_dir`` change how the analysis
        is executed, not what it computes (results are combined in plan
        order on every executor), so they are excluded — a cached result
        stays valid when only those fields differ.
        """
        return (
            None if self.instance is None else tuple(sorted(self.instance.items())),
            self.gamma,
            self.max_depth,
            self.max_subcdags_per_statement,
            self.strategies,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (for the CLI and cache metadata)."""
        return {
            "instance": None if self.instance is None else dict(self.instance),
            "gamma": self.gamma,
            "max_depth": self.max_depth,
            "max_subcdags_per_statement": self.max_subcdags_per_statement,
            "strategies": list(self.strategies),
            "executor": self.executor,
            "n_jobs": self.n_jobs,
            "cache_dir": None if self.cache_dir is None else str(self.cache_dir),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown AnalysisConfig fields: {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("strategies") is not None:
            kwargs["strategies"] = tuple(kwargs["strategies"])
        return cls(**kwargs)
