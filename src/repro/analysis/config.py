"""Analysis configuration: every knob of the derivation in one frozen object.

:class:`AnalysisConfig` bundles the knobs of a derivation — only what
changes the derived bound.  How a derivation runs (the executor, its
worker count, the bound store) is chosen by the caller at the call, never
here.  The wavefront hypothesis check is not a
knob: it is always the symbolic one.  A config is immutable, so it can be
shared between an :class:`~repro.analysis.Analyzer` and its worker
processes, compared for equality, folded into an on-disk cache key (via the
hashable :meth:`AnalysisConfig.signature`), and round-tripped through JSON
(for the CLI and for persisted suite runs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
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

#: The two strategies of Algorithm 6, in its order: K-partition bounds
#: (Alg. 4) first, wavefront bounds (Alg. 5) second.  Run by default, and the
#: only names a config accepts (the keys of ``strategies.STRATEGIES``).
DEFAULT_STRATEGIES = ("kpartition", "wavefront")


def check_instance(instance: Mapping[str, int]) -> dict[str, int]:
    """``instance`` as a dict of ints; a value that is not an ``int`` (a
    ``bool``, a float, a string) or is below 1 raises ``ValueError``."""
    for name, value in instance.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"instance value of {name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"instance value of {name} must be >= 1, got {value}")
    return {str(name): int(value) for name, value in instance.items()}


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable bundle of every knob of the IOLB derivation (Algorithm 6).

    Attributes
    ----------
    instance:
        Heuristic parameter values used only to *rank* competing sub-bounds
        (the returned bound is valid for all parameter values).  Defaults to
        ``DEFAULT_PARAM_VALUE`` (10**5) for every program parameter and
        ``DEFAULT_CACHE_SIZE`` (256) for the cache size ``S``.  Each value is
        an ``int`` of at least 1 (see :func:`check_instance`).
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
        Names of the strategies to run, in order: a non-empty selection
        from ``DEFAULT_STRATEGIES`` (``"kpartition"``, ``"wavefront"``).  Any
        other name, and any name listed twice, is rejected here, when the
        config is built.
    """

    instance: Mapping[str, int] | None = None
    gamma: float = DEFAULT_GAMMA
    max_depth: int = 1
    max_subcdags_per_statement: int = DEFAULT_MAX_SUBCDAGS_PER_STATEMENT
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES

    def __post_init__(self) -> None:
        # Normalise sequence/str fields so equality and the cache signature
        # do not depend on how the caller spelled them.
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.instance is not None:
            object.__setattr__(self, "instance", check_instance(self.instance))

        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_subcdags_per_statement < 1:
            raise ValueError(
                f"max_subcdags_per_statement must be >= 1, got {self.max_subcdags_per_statement}"
            )
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        for name in self.strategies:
            if name not in DEFAULT_STRATEGIES:
                raise ValueError(
                    f"unknown strategy {name!r}; available: {list(DEFAULT_STRATEGIES)}"
                )
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies must not repeat a name, got {list(self.strategies)}")

    # -- derivation helpers -------------------------------------------------

    def replace(self, **changes: Any) -> "AnalysisConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def heuristic_instance(self, params: tuple[str, ...]) -> dict[str, int]:
        """The concrete ranking instance for a program's parameters."""
        values = {p: DEFAULT_PARAM_VALUE for p in params}
        values["S"] = DEFAULT_CACHE_SIZE
        if self.instance:
            values.update(self.instance)
        return values

    def signature(self) -> tuple:
        """Hashable summary of every field, the part of every store key."""
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
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("strategies") is not None:
            kwargs["strategies"] = tuple(kwargs["strategies"])
        return cls(**kwargs)
