"""Subgroup (subspace) lattice closure — Algorithm 2 of the paper.

Lemma 3.12 (Valdimarsson) lets the Brascamp-Lieb condition (2) be verified on
the lattice of subgroups generated by the projection kernels instead of on all
subgroups of Z^d.  Working over Q, the kernels are linear subspaces and the
lattice is the closure under subspace sum and intersection.

``subspace_closure`` mirrors the paper's Algorithm 2 with a count-based
budget in place of the paper's timeout: if the closure grows past
``max_elements`` elements, the *original* lattice is returned so the caller
simply skips the new projection (a weaker but still valid bound).  The
budget does not depend on the host's speed or load, so neither does the
bound.

Each pair is sized before anything is built: ``Subspace.sum_dim`` gives
dim(U + W) from products with U's cached annihilator.  A comparable pair
(dim(U + W) = max(dim U, dim W)) has the operands as its meet and join and
is skipped; a pair with dim U + dim W = dim(U + W) meets in {0}, and a join
of full dimension is the whole space, so neither needs an elimination.
"""

from __future__ import annotations

from typing import Iterable

from .. import perf
from ..sets.memo import MemoCache, register
from .subspace import Subspace

#: The paper's closure timeout.  No derivation reads it; the name stays
#: because the benchmark's closure hook imports it.
DEFAULT_TIMEOUT_SECONDS = 2.0
DEFAULT_MAX_ELEMENTS = 256

# Closure outcomes keyed on (ambient dim, lattice contents, kernel, cap).
# Every outcome, a blow-up included, is a function of the key.  Values hold
# immutable Subspace tuples — a fresh SubspaceLattice is rebuilt per hit
# because lattices are mutable.
_CLOSURE_CACHE = register(MemoCache("linalg.closure", maxsize=8192))


class SubspaceLattice:
    """A finite set of subspaces closed under sum and intersection."""

    def __init__(self, dim_ambient: int, elements: Iterable[Subspace] = ()):
        self.dim_ambient = dim_ambient
        self.elements: set[Subspace] = set()
        for element in elements:
            if element.dim_ambient != dim_ambient:
                raise ValueError("lattice element in wrong ambient dimension")
            self.elements.add(element)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, subspace: Subspace) -> bool:
        return subspace in self.elements

    def nontrivial_elements(self) -> list[Subspace]:
        """Lattice elements other than {0}, sorted by dimension for determinism."""
        elems = [e for e in self.elements if not e.is_zero()]
        return sorted(elems, key=lambda e: (e.dim, e.basis))


@perf.timed("linalg")
def subspace_closure(
    lattice: SubspaceLattice,
    new_kernel: Subspace,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> tuple[SubspaceLattice, bool]:
    """Algorithm 2: tentatively add ``new_kernel`` and re-close the lattice.

    Returns ``(lattice, changed)``.  When the closure has more than
    ``max_elements`` elements, the original lattice is returned unchanged
    with ``changed = False``, exactly like the paper's implementation drops
    the candidate projection.

    Outcomes are memoised on the lattice contents: per-path incremental
    lattices repeat the same closure states across statements, which makes
    this the single most valuable cache in the derivation pipeline.
    """
    if new_kernel.dim_ambient != lattice.dim_ambient:
        raise ValueError("kernel in wrong ambient dimension")
    if new_kernel in lattice and len(lattice) > 0:
        return lattice, False

    # Keys use Subspace.content_key(): the canonical integer rows.
    key = (
        lattice.dim_ambient,
        frozenset(element.content_key() for element in lattice.elements),
        new_kernel.content_key(),
        max_elements,
    )
    elements = _CLOSURE_CACHE.get_or_compute(
        key, lambda: _close(lattice, new_kernel, max_elements)
    )
    if elements is None:
        return lattice, False
    return SubspaceLattice(lattice.dim_ambient, elements), True


def _close(
    lattice: SubspaceLattice, new_kernel: Subspace, max_elements: int
) -> tuple[Subspace, ...] | None:
    """The closure's elements, or None when there are more than ``max_elements``."""
    elements = set(lattice.elements)
    elements.add(new_kernel)
    zero = Subspace.zero(lattice.dim_ambient)
    full = Subspace.full(lattice.dim_ambient)

    # Semi-naive: every new element is paired with every element, so the
    # result is the least set holding the lattice and the kernel that is
    # closed under pairs with a new member.  That set does not depend on the
    # pairing order, and it only grows, so a call blows up exactly when the
    # full closure has more than ``max_elements`` elements.
    worklist = [new_kernel]
    while worklist:
        if len(elements) > max_elements:
            return None
        current = worklist.pop()
        for other in list(elements):
            join_dim = current.sum_dim(other)
            if join_dim == max(current.dim, other.dim):
                continue  # comparable: the meet and the join are the operands
            join = full if join_dim == full.dim else current.sum(other)
            # dim(U cap W) = dim U + dim W - dim(U + W)
            if current.dim + other.dim == join_dim:
                meet = zero
            else:
                meet = current.intersection(other)
            for candidate in (meet, join):
                if candidate not in elements:
                    elements.add(candidate)
                    worklist.append(candidate)
                    if len(elements) > max_elements:
                        return None
    return tuple(elements)


def build_lattice(
    dim_ambient: int, kernels: Iterable[Subspace]
) -> tuple[SubspaceLattice, list[Subspace]]:
    """Build the lattice generated by ``kernels``, skipping any that blow up the closure.

    Returns the lattice together with the list of kernels that were actually
    incorporated (in input order).
    """
    lattice = SubspaceLattice(dim_ambient)
    accepted: list[Subspace] = []
    for kernel in kernels:
        lattice, changed = subspace_closure(lattice, kernel)
        if changed or kernel in lattice:
            accepted.append(kernel)
    return lattice, accepted
