"""The ``Fraction`` subspace arithmetic and worklist closure, kept as an oracle.

:class:`repro.linalg.Subspace` stores primitive integer RREF rows and runs
sum and intersection as integer eliminations; ``subspace_closure`` sizes each
pair first and skips comparable pairs.  This module is the arithmetic it
replaced: a subspace is its ``Fraction`` RREF basis (a tuple of rows), the sum
is the RREF of the stacked bases, the intersection the Zassenhaus-style
kernel of ``[U^T | -W^T]``, and the closure pairs every new element with every
element, computing both the meet and the join of each pair.
"""

from __future__ import annotations

from fractions import Fraction

from repro.linalg import nullspace, rref, to_fraction_matrix

Basis = tuple[tuple[Fraction, ...], ...]


def reference_span(vectors, dim_ambient: int) -> Basis:
    """The ``Fraction`` RREF basis of the span of ``vectors``."""
    matrix = to_fraction_matrix(vectors)
    if not matrix:
        return ()
    if len(matrix[0]) != dim_ambient:
        raise ValueError("vector in wrong ambient dimension")
    reduced, pivots = rref(matrix)
    return tuple(reduced[i] for i in range(len(pivots)))


def reference_sum(a: Basis, b: Basis, dim_ambient: int) -> Basis:
    return reference_span(list(a) + list(b), dim_ambient)


def reference_intersection(a: Basis, b: Basis, dim_ambient: int) -> Basis:
    """x in U cap W  <=>  x = sum c_i u_i = sum d_j w_j: (c, d) in ker [U^T | -W^T]."""
    if not a or not b:
        return ()
    columns = [
        [a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))]
        for i in range(dim_ambient)
    ]
    vectors = []
    for combo in nullspace(to_fraction_matrix(columns)):
        vector = [Fraction(0)] * dim_ambient
        for j, row in enumerate(a):
            for i in range(dim_ambient):
                vector[i] += combo[j] * row[i]
        vectors.append(vector)
    return reference_span(vectors, dim_ambient)


def reference_closure(
    dim_ambient: int, elements, kernel: Basis, max_elements: int = 256
) -> tuple[frozenset, bool]:
    """Close ``elements`` (bases) after adding ``kernel``; no wall-clock deadline.

    Returns ``(elements, changed)``.  Like ``subspace_closure``, a kernel
    already present leaves the set unchanged, and a closure past
    ``max_elements`` elements returns the original set with ``changed = False``.
    """
    original = frozenset(elements)
    if kernel in original and original:
        return original, False
    updated = set(original)
    updated.add(kernel)
    worklist = [kernel]
    while worklist:
        if len(updated) > max_elements:
            return original, False
        current = worklist.pop()
        for other in list(updated):
            for candidate in (
                reference_intersection(current, other, dim_ambient),
                reference_sum(current, other, dim_ambient),
            ):
                if candidate not in updated:
                    updated.add(candidate)
                    worklist.append(candidate)
                    if len(updated) > max_elements:
                        return original, False
    return frozenset(updated), True
