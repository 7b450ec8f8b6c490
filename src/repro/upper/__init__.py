"""repro.upper — simulated upper bounds and the tightness report.

The lower-bound side of the reproduction (:mod:`repro.analysis`) derives
parametric ``Q_low(S, params)`` certificates; this package supplies the
matching *upper* bounds of the paper's Sec. 8.2 tightness experiment:

* :mod:`~repro.upper.search` — a tiling search engine that, per kernel and
  cache size ``S``, enumerates rectangular tile shapes, generates
  :func:`~repro.pebble.tiled_schedule`\\ s on a small-instance CDAG, and
  simulates each through the :mod:`repro.pebble` cache simulators (LRU and
  Belady).  Every simulated schedule is a legal red-white pebble game, so
  its load count is a *sound* upper bound on the optimal I/O of that
  instance — the search is heuristic, the certificate is the simulation;
* :mod:`~repro.upper.result` — :class:`TileSimulation` /
  :class:`UpperBoundResult`, the losslessly JSON-serializable records the
  search produces (persisted in the :class:`~repro.analysis.BoundStore` as
  ``kind="simulation"`` cells and ``kind="search"`` outcomes, so searches
  are resumable and a warm rerun costs one store read per kernel);
* :mod:`~repro.upper.report` — the :class:`TightnessReport` combiner behind
  ``python -m repro report``: per kernel, the parametric lower bound, its
  instance evaluation, the best simulated upper bound, the winning tile
  shape and the tightness ratio — the automated Table 2 sandwich.
"""

from .result import TileSimulation, UpperBoundResult
from .search import (
    SEARCH_VERSION,
    SIMULATION_VERSION,
    candidate_shapes,
    cdag_for,
    reset_simulation_count,
    search_key,
    search_upper_bounds,
    simulation_count,
    simulation_key,
    tile_sizes_for,
)
from .report import TightnessReport, TightnessRow, tightness_report

__all__ = [
    "SEARCH_VERSION",
    "SIMULATION_VERSION",
    "TightnessReport",
    "TightnessRow",
    "TileSimulation",
    "UpperBoundResult",
    "candidate_shapes",
    "cdag_for",
    "reset_simulation_count",
    "search_key",
    "search_upper_bounds",
    "simulation_count",
    "simulation_key",
    "tightness_report",
    "tile_sizes_for",
]
