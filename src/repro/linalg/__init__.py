"""Exact linear algebra: subspaces and subspace lattices.

This subpackage is the numerical backbone of the Brascamp-Lieb reasoning in
:mod:`repro.core`: ranks and kernels of projection maps must be computed
exactly, so subspaces are kept as primitive integer RREF rows and eliminated
fraction-free, and the lattice closure is bounded by an element count, never
by the wall clock.
"""

from .lattice import SubspaceLattice, build_lattice, subspace_closure
from .subspace import Row, Subspace

__all__ = [
    "Row",
    "Subspace",
    "SubspaceLattice",
    "build_lattice",
    "subspace_closure",
]
