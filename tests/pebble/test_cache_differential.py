"""Differential and sandwich properties of the cache simulators (PR 6).

* Belady (``opt``) can never load more than LRU for the same schedule and
  capacity — checked on seeded random DAGs and on small kernel CDAGs;
* every simulated schedule is a legal pebble game, so its load count can
  never be below the evaluated IOLB lower bound — checked across a dozen
  PolyBench kernels (the tightness sandwich the report builds on).
"""

import random
import warnings

import pytest

from repro.ir import CDAG
from repro.pebble import (
    TilingFallbackWarning,
    lexicographic_schedule,
    simulate_schedule,
    topological_schedule,
)
from repro.polybench import analyze_suite, get_kernel


def random_cdag(seed: int, operations: int = 40, inputs: int = 6) -> CDAG:
    """A seeded random DAG built directly (no affine program behind it).

    Statement vertex ``("S", (j,))`` may only read inputs and earlier
    statements, so the construction is acyclic by index; at most 4 operands
    per vertex keeps every operation simulable at small capacities.
    """
    rng = random.Random(seed)
    nodes = [(("in", (index,)), "input") for index in range(inputs)]
    edges = []
    for index in range(operations):
        vertex = ("S", (index,))
        nodes.append((vertex, "statement"))
        pool = [("in", (i,)) for i in range(inputs)]
        pool += [("S", (i,)) for i in range(index)]
        for operand in rng.sample(pool, k=min(len(pool), rng.randint(1, 4))):
            edges.append((operand, vertex))
    return CDAG(program=None, params={}, nodes=nodes, edges=edges)


class TestBeladyNeverWorseThanLRU:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_dags(self, seed):
        cdag = random_cdag(seed)
        schedule = topological_schedule(cdag)
        for capacity in (5, 8, 16):
            lru = simulate_schedule(cdag, schedule, capacity, policy="lru")
            opt = simulate_schedule(cdag, schedule, capacity, policy="opt")
            assert opt.loads <= lru.loads, (
                f"seed {seed}, capacity {capacity}: "
                f"Belady {opt.loads} > LRU {lru.loads}"
            )
            assert opt.operations == lru.operations == len(schedule)

    @pytest.mark.parametrize("name,instance,capacity", [
        ("gemm", {"Ni": 5, "Nj": 5, "Nk": 5}, 8),
        ("atax", {"M": 7, "N": 7}, 6),
        ("trisolv", {"N": 9}, 5),
        ("covariance", {"M": 6, "N": 6}, 8),
    ])
    def test_kernel_cdags(self, name, instance, capacity):
        spec = get_kernel(name)
        cdag = CDAG.expand(spec.program, instance)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TilingFallbackWarning)
            schedule = lexicographic_schedule(cdag, warn=False)
        lru = simulate_schedule(cdag, list(schedule), capacity, policy="lru")
        opt = simulate_schedule(cdag, list(schedule), capacity, policy="opt")
        assert opt.loads <= lru.loads


class TestSandwich:
    """Simulated loads >= evaluated lower bound: the report's core invariant."""

    CASES = [
        ("gemm", {"Ni": 6, "Nj": 6, "Nk": 6}, 8),
        ("cholesky", {"N": 8}, 8),
        ("lu", {"N": 8}, 8),
        ("atax", {"M": 8, "N": 8}, 6),
        ("trisolv", {"N": 10}, 4),
        ("covariance", {"M": 6, "N": 6}, 8),
        ("bicg", {"M": 8, "N": 8}, 6),
        ("gesummv", {"N": 8}, 6),
        ("trmm", {"M": 6, "N": 6}, 8),
        ("doitgen", {"Nq": 6, "Nr": 6, "Np": 6}, 8),
        ("jacobi-2d", {"T": 12, "N": 12}, 16),
        ("fdtd-2d", {"T": 8, "Nx": 8, "Ny": 8}, 16),
    ]

    @pytest.mark.parametrize("name,instance,capacity", CASES)
    def test_simulated_loads_at_least_lower_bound(self, name, instance, capacity):
        spec = get_kernel(name)
        [analysis] = analyze_suite([name])
        cdag = CDAG.expand(spec.program, instance)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TilingFallbackWarning)
            schedule = lexicographic_schedule(cdag, warn=False)
        bound = analysis.result.evaluate({**instance, "S": capacity})
        for policy in ("lru", "opt"):
            simulated = simulate_schedule(cdag, list(schedule), capacity, policy=policy)
            assert bound <= simulated.loads + 1e-9, (
                f"{name} ({policy}): bound {bound} exceeds "
                f"simulated {simulated.loads}"
            )
