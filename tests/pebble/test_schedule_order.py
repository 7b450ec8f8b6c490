"""Schedule generators order vertices exactly like their tuple sort keys.

``lexicographic_schedule`` and ``tiled_schedule`` sort the CDAG's compute
ids with ``numpy.lexsort`` over padded integer key rows.  The reference here
is the plain definition: ``sorted`` over ``(statement, point)`` vertices with
a tuple key, stable in compute-vertex order, then the same validity check and
topological fallback.  The two must agree on every PolyBench kernel and on
fuzz programs (statements of mixed depth included), for tile shapes from the
search grid and for degenerate tile sizes.
"""

from __future__ import annotations

import pytest

from repro.fuzz import random_program
from repro.fuzz.generator import PROFILES
from repro.ir import CDAG
from repro.pebble import lexicographic_schedule, tiled_schedule, topological_schedule
from repro.polybench import get_kernel, kernel_names
from repro.polybench.suite import _shrink
from repro.upper.search import candidate_shapes, tile_sizes_for


def reference_lexicographic(cdag, statement_order=None):
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}

    def key(vertex):
        name, point = vertex
        return (point + (float("inf"),) * 8)[:8], rank.get(name, len(rank))

    return sorted(cdag.compute_vertices(), key=key)


def reference_tiled(cdag, tile_sizes, statement_order=None):
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}

    def key(vertex):
        name, point = vertex
        sizes = tile_sizes.get(name, (1,) * len(point))
        tile_coord = tuple(
            coordinate // size if size > 0 else coordinate
            for coordinate, size in zip(point, sizes)
        )
        return tile_coord, rank.get(name, len(rank)), point

    return sorted(cdag.compute_vertices(), key=key)


def assert_same(cdag, schedule, ordered):
    """``schedule`` is ``ordered`` when that is valid, else the topological fallback."""
    if cdag.is_valid_schedule(ordered):
        assert not schedule.used_fallback
        assert list(schedule) == ordered
    else:
        assert schedule.used_fallback
        assert list(schedule) == list(topological_schedule(cdag))


def kernel_cdag(name: str) -> CDAG:
    spec = get_kernel(name)
    return CDAG.expand(spec.program, _shrink(spec.large_instance, 4))


@pytest.mark.parametrize("name", kernel_names())
def test_polybench_kernels(name):
    cdag = kernel_cdag(name)
    program = cdag.program
    reverse = list(reversed(program.statements))
    assert_same(cdag, lexicographic_schedule(cdag, warn=False), reference_lexicographic(cdag))
    assert_same(
        cdag,
        lexicographic_schedule(cdag, reverse, warn=False),
        reference_lexicographic(cdag, reverse),
    )
    for shape in candidate_shapes(cdag.extents, max_candidates=12):
        sizes = tile_sizes_for(program, shape)
        assert_same(cdag, tiled_schedule(cdag, sizes, warn=False), reference_tiled(cdag, sizes))
        assert_same(
            cdag,
            tiled_schedule(cdag, sizes, reverse, warn=False),
            reference_tiled(cdag, sizes, reverse),
        )


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fuzz_programs(profile):
    for seed in range(8):
        program = random_program(seed, profile)
        cdag = CDAG.expand(program, PROFILES[profile].instance_dicts()[0])
        assert_same(cdag, lexicographic_schedule(cdag, warn=False), reference_lexicographic(cdag))
        for shape in candidate_shapes(cdag.extents, max_candidates=8):
            sizes = tile_sizes_for(program, shape)
            schedule = tiled_schedule(cdag, sizes, warn=False)
            assert_same(cdag, schedule, reference_tiled(cdag, sizes))


@pytest.mark.parametrize("name", ["covariance", "gemver", "lu", "trmm"])
def test_degenerate_tile_sizes(name):
    """Edges <= 0, sizes shorter or longer than a point, statements left out."""
    cdag = kernel_cdag(name)
    statements = list(cdag.program.statements)
    cases = [
        {},
        {statements[0]: (0, -1, 0)},
        {statements[-1]: (2,)},
        {name_: (3, 2, 2, 5, 7) for name_ in statements},
        {name_: (-2, 2) for name_ in statements[::2]},
    ]
    for sizes in cases:
        assert_same(cdag, tiled_schedule(cdag, sizes, warn=False), reference_tiled(cdag, sizes))
    partial_order = statements[1:]
    assert_same(
        cdag,
        lexicographic_schedule(cdag, partial_order, warn=False),
        reference_lexicographic(cdag, partial_order),
    )
