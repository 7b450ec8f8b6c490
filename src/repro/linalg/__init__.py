"""Exact rational linear algebra: matrices, subspaces and subspace lattices.

This subpackage is the numerical backbone of the Brascamp-Lieb reasoning in
:mod:`repro.core`: ranks and kernels of projection maps must be computed
exactly, so matrices are over ``fractions.Fraction`` and subspaces are kept
as primitive integer rows, eliminated fraction-free.
"""

from .lattice import SubspaceLattice, build_lattice, subspace_closure
from .rational import (
    Matrix,
    Row,
    identity,
    is_integer_matrix,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_space_basis,
    rref,
    solve,
    to_fraction_matrix,
    transpose,
    zeros,
)
from .subspace import Subspace

__all__ = [
    "Matrix",
    "Row",
    "Subspace",
    "SubspaceLattice",
    "build_lattice",
    "identity",
    "is_integer_matrix",
    "mat_mul",
    "mat_vec",
    "nullspace",
    "rank",
    "row_space_basis",
    "rref",
    "solve",
    "subspace_closure",
    "to_fraction_matrix",
    "transpose",
    "zeros",
]
