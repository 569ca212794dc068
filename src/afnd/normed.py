"""Strictness of maps between finite-dimensional non-Archimedean normed spaces.

A space is a finite orthogonal sum of one-dimensional spaces k_r, recorded by
its weight list; the norm of a coordinate vector is max_i |c_i| w_i
(a `scalar.max_norm`).  In this class every image is closed, so every map
is strict, and its strictness constant has an exact closed form.
`strict_epi_constant` takes a morphism as sparse rows with the two weight
lists; it is the one strictness computation, read by
`complexes.strict_exactness`.
"""

from __future__ import annotations

from typing import Sequence

from afnd.linalg import NormAwareElimination, SparseRow
from afnd.scalar import FieldSpec, NormValue


def strict_epi_constant(
    field: FieldSpec,
    rows: Sequence[SparseRow],
    row_weights: Sequence[NormValue],
    col_weights: Sequence[NormValue],
) -> NormValue | None:
    """The least C with inf-preimage-norm <= C ||f|| for every f in the
    image of the map given by sparse `rows`, one per codomain coordinate;
    None for the zero map.

    `col_weights` weight the domain and `row_weights` the codomain.  C is
    the inverse of the smallest pivot score of `NormAwareElimination`, the
    least singular value of the map.  That is the last pivot's score, one
    product of norm values (`smallest_score`), in `int` exponent arithmetic
    where the weights are integral.
    """
    elim = NormAwareElimination(field, rows, row_weights, col_weights)
    return elim.smallest_score().inverse() if elim.rank else None
