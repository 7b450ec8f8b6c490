"""Named spaces for parametric integer sets.

A :class:`Space` plays the role of an ISL space: it names the tuple (usually a
program statement, e.g. ``S3``), its dimensions (loop indices, e.g.
``("k", "i", "j")``) and the symbolic parameters in scope (problem sizes such
as ``N`` or the loop-parametrisation parameters ``Omega`` of Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Space:
    """Space of a parametric set: a named tuple of dimensions plus parameters."""

    tuple_name: str
    dims: tuple[str, ...]
    params: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dimension names in {self.dims}")
        overlap = set(self.dims) & set(self.params)
        if overlap:
            raise ValueError(f"names used both as dimension and parameter: {overlap}")

    @property
    def dim(self) -> int:
        """Number of set dimensions."""
        return len(self.dims)

    def with_params(self, extra: tuple[str, ...]) -> "Space":
        """Return a copy with additional parameters appended (ignoring duplicates)."""
        new_params = tuple(self.params) + tuple(p for p in extra if p not in self.params)
        return Space(self.tuple_name, self.dims, new_params)

    def rename_tuple(self, new_name: str) -> "Space":
        """Return a copy with a different tuple name (same dims and params)."""
        return Space(new_name, self.dims, self.params)

    def index_of(self, dim_name: str) -> int:
        """Position of a dimension name."""
        return self.dims.index(dim_name)

    def __str__(self) -> str:
        params = ", ".join(self.params)
        dims = ", ".join(self.dims)
        prefix = f"[{params}] -> " if params else ""
        return f"{prefix}{{ {self.tuple_name}[{dims}] }}"
