"""The indexed cache simulator equals the move-by-move reference.

``simulate_schedule`` runs on the CDAG's integer index with in-line rule
checks; :mod:`reference_cache` is the simulator it replaced, playing every
move through ``GameState``.  Loads and evictions must be equal on:

* seeded random DAGs (seeds 0-9, capacities 5, 8, 16);
* the four kernel CDAGs of ``test_cache_differential.py``;
* every legal cell of the report-cold tiling search (the benchmark's five
  kernels at its instance, every candidate shape, both policies, S = 16
  and 64);
* lexicographic and topological schedules of fuzz programs (small, wide
  and deep profiles, seeds 0-23) at capacities c, c+1, c+3 and 2c, where c
  is the smallest cache every operation fits in.

The reference breaks Belady ties in hash order, so one slice also runs in a
subprocess under a fixed non-zero ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import pytest

from repro.fuzz import random_program
from repro.fuzz.generator import PROFILES
from repro.fuzz.oracles import _sandwich_capacity
from repro.ir import CDAG
from repro.pebble import (
    TilingFallbackWarning,
    lexicographic_schedule,
    simulate_schedule,
    tiled_schedule,
    topological_schedule,
)
from repro.polybench import get_kernel
from repro.polybench.suite import _shrink
from repro.upper.search import candidate_shapes, tile_sizes_for

from reference_cache import reference_simulate
from test_cache_differential import random_cdag

HERE = Path(__file__).resolve().parent

REPORT_KERNELS = ["gemm", "jacobi-2d", "atax", "lu", "seidel-2d"]
REPORT_INSTANCE = {"Ni": 8, "Nj": 8, "Nk": 8}
FUZZ_SEEDS = range(24)


def outcome(simulate, cdag, schedule, capacity, policy):
    """``(loads, evictions)``, or the exception type when the cell is not simulable."""
    try:
        result = simulate(cdag, schedule, capacity, policy=policy)
    except (ValueError, RuntimeError) as error:
        return type(error).__name__
    return result.loads, result.evictions


def mismatches(cells) -> list:
    """Cells ``(label, cdag, schedule, capacity, policy)`` where the simulators differ."""
    different = []
    for label, cdag, schedule, capacity, policy in cells:
        fast = outcome(simulate_schedule, cdag, schedule, capacity, policy)
        slow = outcome(reference_simulate, cdag, schedule, capacity, policy)
        if fast != slow:
            different.append((label, capacity, policy, fast, slow))
    return different


def random_cells():
    for seed in range(10):
        cdag = random_cdag(seed)
        schedule = list(topological_schedule(cdag))
        for capacity in (5, 8, 16):
            for policy in ("lru", "opt"):
                yield f"random-{seed}", cdag, schedule, capacity, policy


def kernel_cells():
    for name, instance, capacity in [
        ("gemm", {"Ni": 5, "Nj": 5, "Nk": 5}, 8),
        ("atax", {"M": 7, "N": 7}, 6),
        ("trisolv", {"N": 9}, 5),
        ("covariance", {"M": 6, "N": 6}, 8),
    ]:
        cdag = CDAG.expand(get_kernel(name).program, instance)
        schedule = list(lexicographic_schedule(cdag, warn=False))
        for policy in ("lru", "opt"):
            yield name, cdag, schedule, capacity, policy


@lru_cache(maxsize=None)
def report_schedules(kernel: str) -> tuple[CDAG, list]:
    """The report-cold CDAG of ``kernel`` and its legal candidate schedules."""
    spec = get_kernel(kernel)
    instance = _shrink(spec.large_instance)
    instance.update({k: v for k, v in REPORT_INSTANCE.items() if k in instance})
    cdag = CDAG.expand(spec.program, instance)
    schedules = []
    for shape in candidate_shapes(cdag.extents):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TilingFallbackWarning)
            schedule = tiled_schedule(cdag, tile_sizes_for(spec.program, shape), warn=False)
        if schedule.used_fallback and any(edge != 1 for edge in shape):
            continue  # the search skips illegal tilings without simulating them
        schedules.append((shape, list(schedule)))
    return cdag, schedules


def report_cells(kernel: str):
    cdag, schedules = report_schedules(kernel)
    for shape, schedule in schedules:
        for policy in ("lru", "opt"):
            for capacity in (16, 64):
                yield f"{kernel}{shape}", cdag, schedule, capacity, policy


def fuzz_cells(profile: str, seeds=FUZZ_SEEDS):
    for seed in seeds:
        program = random_program(seed, profile)
        cdag = CDAG.expand(program, PROFILES[profile].instance_dicts()[0])
        c = _sandwich_capacity(cdag)
        schedules = {
            "lexicographic": list(lexicographic_schedule(cdag, warn=False)),
            "topological": list(topological_schedule(cdag)),
        }
        for order, schedule in schedules.items():
            for capacity in (c, c + 1, c + 3, 2 * c):
                for policy in ("lru", "opt"):
                    yield f"{profile}-{seed}-{order}", cdag, schedule, capacity, policy


def test_random_dags():
    assert mismatches(random_cells()) == []


def test_kernel_cdags():
    assert mismatches(kernel_cells()) == []


@pytest.mark.parametrize("kernel", REPORT_KERNELS)
def test_report_search_cells(kernel):
    cells = list(report_cells(kernel))
    assert cells
    assert mismatches(cells) == []


@pytest.mark.parametrize("profile", ["small", "wide", "deep"])
def test_fuzz_schedules(profile):
    cells = list(fuzz_cells(profile))
    assert len(cells) == len(FUZZ_SEEDS) * 2 * 4 * 2
    assert mismatches(cells) == []


def test_cell_count():
    """The report-cold slice is every legal search cell: 292 of them."""
    assert sum(len(list(report_cells(kernel))) for kernel in REPORT_KERNELS) == 292


def test_slice_under_another_hash_seed():
    """The reference's Belady ties follow hash order; loads must not."""
    script = (
        "import json, test_simulator_reference as t\n"
        "cells = [*t.random_cells(), *t.kernel_cells(), *t.fuzz_cells('wide', range(8))]\n"
        "print(json.dumps([len(cells), t.mismatches(cells)]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="7")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    count, different = json.loads(done.stdout.strip().splitlines()[-1])
    assert count == 60 + 8 + 8 * 2 * 4 * 2
    assert different == []
