"""Red-white pebble game, schedules and cache simulation on explicit CDAGs."""

from .cache import PebbleGameError, SimulationResult, simulate_schedule
from .schedules import (
    Schedule,
    TilingFallbackWarning,
    lexicographic_schedule,
    tiled_schedule,
    topological_schedule,
)

__all__ = [
    "PebbleGameError",
    "Schedule",
    "SimulationResult",
    "TilingFallbackWarning",
    "lexicographic_schedule",
    "simulate_schedule",
    "tiled_schedule",
    "topological_schedule",
]
