"""Schedule generators for explicit CDAGs.

The Sec. 8.2 experiment compares the IOLB upper bound on operational intensity
with the OI achieved by concrete schedules.  PLuTo-generated tiled code is not
available offline, so we generate schedules directly on the expanded CDAG:

* ``lexicographic_schedule`` — the original program order (statement instances
  sorted lexicographically on their iteration vectors, statements interleaved
  at the innermost shared level), i.e. the untiled baseline;
* ``tiled_schedule`` — a rectangularly tiled order of the same instances
  (tiles executed one after the other, lexicographically within a tile), the
  stand-in for PLuTo's tiling;
* ``topological_schedule`` — an arbitrary valid order, useful as a fallback
  for programs whose lexicographic order is not a topological order of the
  simplified DFG.

All generated schedules are checked for validity against the CDAG before use.
When the requested order violates a dependence (e.g. a rectangular tiling of
a stencil's time dimension, which is only legal after skewing), the generator
falls back to a plain topological order.  The fallback is *observable*: the
returned :class:`Schedule` carries a ``used_fallback`` flag and a
:class:`TilingFallbackWarning` is emitted, so callers such as the tiling
search in :mod:`repro.upper` can skip schedules that no longer reflect the
tiling they asked for instead of scoring a meaningless "tiling".
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from ..ir import CDAG


class TilingFallbackWarning(UserWarning):
    """The requested schedule order was illegal; a topological order was used."""


class Schedule(list):
    """A CDAG schedule: a plain list of vertices plus provenance flags.

    Subclasses ``list`` so every existing consumer (``simulate_schedule``,
    ``CDAG.is_valid_schedule``, slicing, ...) keeps working unchanged.

    Attributes
    ----------
    requested:
        The order that was asked for (``"lexicographic"``, ``"tiled"``,
        ``"topological"``).
    used_fallback:
        True when the requested order violated a dependence and the schedule
        is a plain topological order instead — i.e. the schedule does *not*
        realise the requested tiling/ordering.
    """

    def __init__(self, vertices, requested: str = "topological", used_fallback: bool = False):
        super().__init__(vertices)
        self.requested = requested
        self.used_fallback = used_fallback


def topological_schedule(cdag: CDAG) -> Schedule:
    """Any topological order of the compute vertices."""
    vertices = cdag.vertices
    return Schedule([vertices[i] for i in cdag.compute_topological], requested="topological")


def _finish(cdag: CDAG, ordered: list[int], requested: str, warn: bool) -> Schedule:
    """Validate a candidate order of compute ids, falling back observably when illegal."""
    if cdag.is_valid_order(ordered):
        vertices = cdag.vertices
        return Schedule([vertices[i] for i in ordered], requested=requested)
    if warn:
        warnings.warn(
            f"{requested} order violates a dependence of {cdag.program.name!r}; "
            "falling back to a topological order (the schedule does not "
            "realise the requested ordering)",
            TilingFallbackWarning,
            stacklevel=3,
        )
    fallback = topological_schedule(cdag)
    return Schedule(fallback, requested=requested, used_fallback=True)


#: Fills that sort before / after every coordinate.
_LOW, _HIGH = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _pad(columns: np.ndarray, width: int, fill: int) -> np.ndarray:
    """``columns`` cut, or padded on the right with ``fill``, to ``width`` columns."""
    padded = np.full((len(columns), width), fill, dtype=np.int64)
    kept = min(width, columns.shape[1])
    padded[:, :kept] = columns[:, :kept]
    return padded


def _sorted_compute(cdag: CDAG, key_rows) -> list[int]:
    """The compute ids sorted by key rows, lexicographically, equal rows in id order.

    ``key_rows(statement, points)`` returns one int row per instance point
    of a statement, all statements' rows of one width.  A tuple key whose
    parts vary in length sorts the same once each part is padded with
    ``_LOW`` (a proper prefix sorts first) or cut and padded with ``_HIGH``.
    """
    groups = cdag.statements
    if not groups:
        return []
    ids = np.concatenate([ids for ids, _ in groups.values()])
    rows = np.concatenate([key_rows(name, points) for name, (_, points) in groups.items()])
    return ids[np.lexsort((ids, *rows.T[::-1]))].tolist()


def lexicographic_schedule(
    cdag: CDAG, statement_order: Sequence[str] | None = None, warn: bool = True
) -> Schedule:
    """Program-order schedule: iteration vectors ascending, statements interleaved.

    Statement instances are ordered by their iteration vector first and by the
    statement's position in ``statement_order`` (default: program declaration
    order) to break ties, which reproduces the textual order of a loop nest in
    which the statements share their outer loops.  Falls back to a topological
    order when the result violates a dependence (``used_fallback`` is set on
    the returned schedule and a :class:`TilingFallbackWarning` is emitted
    unless ``warn=False``).
    """
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}

    def key_rows(name: str, points: np.ndarray) -> np.ndarray:
        # (point + (inf,) * 8)[:8], then the statement's rank
        position = np.full((len(points), 1), rank.get(name, len(rank)), dtype=np.int64)
        return np.hstack([_pad(points, 8, _HIGH), position])

    return _finish(cdag, _sorted_compute(cdag, key_rows), "lexicographic", warn)


def tiled_schedule(
    cdag: CDAG,
    tile_sizes: Mapping[str, Sequence[int]],
    statement_order: Sequence[str] | None = None,
    warn: bool = True,
) -> Schedule:
    """Rectangularly tiled schedule.

    ``tile_sizes[statement]`` gives the tile edge length per dimension of that
    statement (1 = untiled dimension).  Instances are ordered by their tile
    coordinates first, then lexicographically within the tile.  Falls back to
    a topological order if the tiling is not legal for the CDAG — check
    ``schedule.used_fallback`` before treating the result as a realisation of
    the requested tiling (a :class:`TilingFallbackWarning` is emitted unless
    ``warn=False``).
    """
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}

    depth = max((points.shape[1] for _, points in cdag.statements.values()), default=0)

    def key_rows(name: str, points: np.ndarray) -> np.ndarray:
        # (tile coordinates, the statement's rank, point)
        sizes = tile_sizes.get(name)
        if sizes is None:  # untiled: every edge 1, the tile is the point
            tile = points
        else:
            # Zip semantics (the shorter of point and sizes); an edge <= 0
            # leaves its dimension untiled, like an edge of 1.
            edges = np.maximum(np.asarray(sizes, dtype=np.int64)[: points.shape[1]], 1)
            tile = points[:, : len(edges)] // edges
        position = np.full((len(points), 1), rank.get(name, len(rank)), dtype=np.int64)
        return np.hstack([_pad(tile, depth, _LOW), position, _pad(points, depth, _LOW)])

    return _finish(cdag, _sorted_compute(cdag, key_rows), "tiled", warn)
