"""The tiling search engine: enumerate tile shapes, simulate, keep the best.

Per program instance and cache size ``S`` the search walks a powers-of-two
grid of rectangular tile shapes (plus the untiled all-ones baseline), turns
each into a :func:`~repro.pebble.tiled_schedule` on the instance's explicit
CDAG, and simulates it through the LRU and Belady cache simulators.  Every
simulated schedule is a validated red-white pebble game, so *any* candidate's
load count is already a sound upper bound on the instance's optimal I/O — the
search only decides how tight the reported bound is, never whether it is
valid.  A refinement wave then perturbs the best shape one dimension at a
time off the powers-of-two grid.

Tilings whose rectangular order violates a dependence (stencil time tiling
without skewing) are detected via the schedule's ``used_fallback`` flag and
skipped rather than scored — except for the all-ones baseline, whose
topological fallback is still an honest (untiled) schedule and keeps every
kernel sandwiched.

Simulations fan out through the generic event-driven scheduler
(:func:`repro.analysis.scheduler.schedule_work`) — the same engine that runs
derivation tasks — so a search parallelises over the configured executor.
A store memoises a search at two levels.  Each (program fingerprint x
instance x S x tile x policy) cell is a ``kind="simulation"`` entry, so an
interrupted search resumes and a search under another candidate budget
reuses every cell it shares.  Each finished search is one ``kind="search"``
entry over (program fingerprint x instance x S x candidate budget), read
before the CDAG is even expanded, so a warm rerun costs one store read per
job: **zero** simulations and zero CDAG expansions.  Executed simulations
are counted on the same :class:`~repro.analysis.StreamCounters` object as
derivations: the process-wide instance behind :func:`simulation_count`, plus
the caller's own instance when one is passed (the tightness report passes
one, so its counts are its own work only).  The expanded CDAGs live in the
same bounded fingerprint-keyed LRU (:class:`~repro.analysis.plan.ProgramCache`)
as the planner's DFGs.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Iterable, Mapping, Sequence

from ..analysis.executor import Executor, lease_executor
from ..analysis.plan import ProgramCache, program_fingerprint
from ..analysis.scheduler import (
    PROCESS_COUNTERS,
    StreamCounters,
    WorkItem,
    count_work,
    schedule_work,
)
from ..analysis.store import BoundStore
from ..ir import CDAG, AffineProgram
from ..pebble import simulate_schedule, tiled_schedule
from .result import TileSimulation, UpperBoundResult, select_best

#: Bump to invalidate every persisted simulation entry (key material).
#: Search outcome keys fold it in too: an outcome is built from those cells.
SIMULATION_VERSION = 1

#: Bump to invalidate every persisted search outcome (key material) whenever
#: :func:`candidate_shapes`, :func:`_refinement_shapes`, ``select_best`` or
#: :data:`POLICIES` change which cells a search examines or which it elects.
SEARCH_VERSION = 1

#: Replacement policies every candidate shape is simulated under.
POLICIES = ("lru", "opt")


def simulation_count() -> int:
    """Number of cache simulations executed since the last reset.

    Store hits do not count; simulations executed in worker threads or
    processes do (accounted on the requester side as their results arrive),
    so a warm report rerun asserts ``simulation_count() == 0`` on any
    executor.  Reads the process-wide
    :class:`~repro.analysis.StreamCounters`.
    """
    return PROCESS_COUNTERS.simulations


def reset_simulation_count() -> int:
    """Reset the process-wide simulation counter; returns the prior count."""
    return PROCESS_COUNTERS.reset("simulations")


# -- per-process CDAG cache ---------------------------------------------------
#
# The search simulates dozens of tilings of the *same* small CDAG; expanding
# it once per simulation would dwarf the simulation cost.  In-process
# executors share the requester's expansion, a pool worker expands once per
# (program, instance) and reuses it for every tile shape routed to it.

_CDAGS = ProgramCache(lambda program, items: CDAG.expand(program, dict(items)))


def _instance_items(instance: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((str(k), int(v)) for k, v in instance.items()))


def cdag_for(
    program: AffineProgram,
    instance: Mapping[str, int],
    fingerprint: str | None = None,
) -> CDAG:
    """Expand (or fetch the cached) explicit CDAG of one program instance."""
    return _CDAGS.get(program, fingerprint, _instance_items(instance))


# -- keys ---------------------------------------------------------------------


def simulation_key(
    fingerprint: str,
    instance: Mapping[str, int],
    cache_words: int,
    shape: Sequence[int],
    policy: str,
) -> str:
    """Store key of one simulation cell: ``<sha256>-sim``.

    Keyed by (program fingerprint x instance x S x tile x policy) plus the
    schema version, so any change to the simulator's semantics invalidates
    persisted entries by construction rather than by garbage collection.
    """
    material = repr((
        SIMULATION_VERSION,
        fingerprint,
        _instance_items(instance),
        int(cache_words),
        tuple(int(s) for s in shape),
        str(policy),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest() + "-sim"


def search_key(
    fingerprint: str,
    instance: Mapping[str, int],
    cache_words: int,
    max_candidates: int,
) -> str:
    """Store key of one whole search outcome: ``<sha256>-search``.

    Keyed by (program fingerprint x instance x S x candidate budget) plus
    both schema versions; the budget is part of the key because it decides
    which shapes the search examines, while the cells those shapes share
    with another budget's search stay reusable under their own keys.
    """
    material = repr((
        SEARCH_VERSION,
        SIMULATION_VERSION,
        fingerprint,
        _instance_items(instance),
        int(cache_words),
        int(max_candidates),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest() + "-search"


# -- tile shapes --------------------------------------------------------------


def tile_sizes_for(
    program: AffineProgram, shape: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Per-statement tile sizes from one global shape, innermost-aligned.

    Statements of different depth share the *innermost* entries of the shape
    (a 2-deep statement in a 3-deep program takes the last two edges), which
    matches how shallower statements share the inner loops of a nest.
    """
    shape = tuple(int(s) for s in shape)
    sizes = {}
    for name, statement in program.statements.items():
        depth = len(statement.dims)
        sizes[name] = shape[len(shape) - depth:] if depth <= len(shape) else (
            (1,) * (depth - len(shape)) + shape
        )
    return sizes


def candidate_shapes(
    extents: Sequence[int], max_candidates: int = 64
) -> list[tuple[int, ...]]:
    """The powers-of-two tile grid: every combination of per-dimension edges.

    Each dimension offers the powers of two up to its extent, plus the extent
    itself (one tile spanning the whole dimension).  The cartesian product is
    deterministically subsampled to ``max_candidates`` shapes; the all-ones
    untiled baseline always survives the cut.
    """
    options = []
    for extent in extents:
        extent = max(1, int(extent))
        edges = []
        edge = 1
        while edge <= extent:
            edges.append(edge)
            edge *= 2
        if extent not in edges:
            edges.append(extent)
        options.append(edges)

    shapes: list[tuple[int, ...]] = [()]
    for edges in options:
        shapes = [shape + (edge,) for shape in shapes for edge in edges]
    shapes.sort()
    if len(shapes) > max_candidates:
        step = len(shapes) / max_candidates
        shapes = [shapes[int(index * step)] for index in range(max_candidates)]
    baseline = tuple(1 for _ in extents)
    if baseline not in shapes:
        shapes.insert(0, baseline)
    return shapes


def _refinement_shapes(
    best: Sequence[int], extents: Sequence[int], tried: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Single-dimension perturbations of the winner, off the powers grid."""
    tried = set(tried)
    best = tuple(int(s) for s in best)
    shapes: list[tuple[int, ...]] = []
    for index, (edge, extent) in enumerate(zip(best, extents)):
        for perturbed in ((edge * 3) // 4, edge + max(1, edge // 2)):
            perturbed = max(1, min(int(extent), perturbed))
            shape = best[:index] + (perturbed,) + best[index + 1:]
            if shape not in tried and shape not in shapes:
                shapes.append(shape)
    return shapes


# -- the worker ---------------------------------------------------------------


def _simulate_payload(payload: tuple) -> TileSimulation:
    """Module-level simulation entry point (picklable for process pools).

    Skips — rather than scores — tilings whose rectangular order is illegal
    for the CDAG (``used_fallback``), except the all-ones baseline: its
    topological fallback is still an honest untiled schedule, and simulating
    it guarantees every kernel gets at least one sound upper bound.
    """
    program, instance_items, cache_words, shape, policy, fingerprint = payload
    instance = dict(instance_items)
    cdag = cdag_for(program, instance, fingerprint)
    schedule = tiled_schedule(cdag, tile_sizes_for(program, shape), warn=False)
    baseline = all(edge == 1 for edge in shape)
    skipped = TileSimulation(
        shape=tuple(shape),
        policy=policy,
        capacity=cache_words,
        simulated=False,
        used_fallback=schedule.used_fallback,
    )
    if schedule.used_fallback and not baseline:
        return skipped
    try:
        result = simulate_schedule(cdag, list(schedule), cache_words, policy=policy)
    except (ValueError, RuntimeError):
        # Cache too small for some operation's operands: not a usable bound.
        return skipped
    return TileSimulation(
        shape=tuple(shape),
        policy=policy,
        capacity=cache_words,
        simulated=True,
        used_fallback=schedule.used_fallback,
        loads=result.loads,
        evictions=result.evictions,
        operations=result.operations,
        flops=cdag.flops,
    )


# -- the search ---------------------------------------------------------------


def check_sizes(**sizes: int) -> None:
    """Raise ``ValueError`` for the first size below 1."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def search_upper_bounds(
    jobs: Sequence[tuple[AffineProgram, Mapping[str, int]]],
    cache_words: int = 64,
    max_candidates: int = 64,
    executor: "Executor | str | None" = None,
    n_jobs: int = 1,
    store: BoundStore | None = None,
    counters: StreamCounters | None = None,
) -> list[UpperBoundResult | None]:
    """Search tilings for a batch of ``(program, instance)`` jobs at once.

    All jobs' wave-1 simulations enter **one** :func:`schedule_work` queue
    over one shared executor (exactly like a suite derivation); the
    refinement wave then perturbs each job's winner.  Returns one
    :class:`UpperBoundResult` per job, in job order — ``None`` for jobs
    whose CDAG could not be expanded at the requested instance.

    With a ``store``, every simulation cell persists as a
    ``kind="simulation"`` entry and every job's outcome as one
    ``kind="search"`` entry.  A job whose outcome is stored costs that one
    read (no CDAG expansion, no simulation), and a warm rerun returns the
    very object the store decoded.  Executed simulations are counted
    process-wide and, when given, on ``counters``.  Sizes below 1 raise
    ``ValueError`` before any work.
    """
    check_sizes(cache_words=cache_words, max_candidates=max_candidates)
    executor, release = lease_executor(executor, n_jobs)
    try:
        return _run_search(jobs, cache_words, max_candidates, executor, store, counters)
    finally:
        release()


def _run_search(
    jobs: Sequence[tuple[AffineProgram, Mapping[str, int]]],
    cache_words: int,
    max_candidates: int,
    executor: Executor,
    store: BoundStore | None,
    counters: StreamCounters | None,
) -> list[UpperBoundResult | None]:
    results: list[UpperBoundResult | None] = [None] * len(jobs)
    # One entry per job still to search; None for a stored or failed job.
    prepared: list[dict | None] = []
    for index, (program, instance) in enumerate(jobs):
        prepared.append(None)
        fingerprint = program_fingerprint(program)
        try:
            values = program.instance_values(instance)
        except (KeyError, ValueError, TypeError):
            continue
        key = None
        if store is not None:
            key = search_key(fingerprint, values, cache_words, max_candidates)
            results[index] = store.get_search(key, UpperBoundResult.from_dict)
            if results[index] is not None:
                continue
        try:
            cdag = cdag_for(program, values, fingerprint)
        except Exception:
            continue
        if not cdag.compute:
            continue
        extents = cdag.extents
        prepared[index] = {
            "program": program,
            "instance": values,
            "fingerprint": fingerprint,
            "key": key,
            "extents": extents,
            "shapes": candidate_shapes(extents, max_candidates),
            "simulations": [],
        }

    def run_wave(shapes_per_job: list[list[tuple[int, ...]]]) -> None:
        groups: list[list[WorkItem]] = []
        group_jobs: list[int] = []
        for job_index, job in enumerate(prepared):
            if job is None or not shapes_per_job[job_index]:
                continue
            items = []
            for shape in shapes_per_job[job_index]:
                for policy in POLICIES:
                    payload = (
                        job["program"],
                        tuple(sorted(job["instance"].items())),
                        int(cache_words),
                        shape,
                        policy,
                        job["fingerprint"],
                    )
                    key = None
                    if store is not None:
                        key = simulation_key(
                            job["fingerprint"], job["instance"], cache_words, shape, policy
                        )
                    items.append(WorkItem(payload, key=key))
            groups.append(items)
            group_jobs.append(job_index)
        for group_index, results in schedule_work(
            groups,
            _simulate_payload,
            executor=executor,
            store_get=None if store is None else partial(
                store.get_simulation, decode=TileSimulation.from_dict
            ),
            store_put=None if store is None else (
                lambda key, simulation: store.put_simulation(key, simulation.to_dict())
            ),
            on_executed=partial(count_work, "simulations", counters),
        ):
            prepared[group_jobs[group_index]]["simulations"].extend(results)

    run_wave([[] if job is None else list(job["shapes"]) for job in prepared])

    refinements: list[list[tuple[int, ...]]] = []
    for job in prepared:
        best = None if job is None else select_best(job["simulations"])
        refinements.append(
            [] if best is None
            else _refinement_shapes(best.shape, job["extents"], job["shapes"])
        )
    run_wave(refinements)

    for index, job in enumerate(prepared):
        if job is None:
            continue
        simulations = tuple(
            sorted(job["simulations"], key=lambda sim: (sim.shape, sim.policy))
        )
        results[index] = UpperBoundResult(
            program=job["program"].name,
            instance=job["instance"],
            cache_words=int(cache_words),
            best=select_best(simulations),
            simulations=simulations,
        )
        if job["key"] is not None:
            store.put_search(job["key"], results[index].to_dict())
    return results
