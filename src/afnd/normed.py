"""Strictness of maps between finite-dimensional non-Archimedean normed spaces.

A space is a finite orthogonal sum of one-dimensional spaces k_r, recorded by
its weight list; the norm of a coordinate vector is max_i |c_i| w_i
(a `scalar.max_norm`).  In this class the strictness constants of a
morphism have exact closed forms.  `classify` takes a morphism as sparse
rows with the two weight lists; it is the one strictness computation, shared
with `complexes.strict_exactness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from afnd.linalg import NormAwareElimination, SparseRow
from afnd.scalar import FieldSpec, NormValue


@dataclass(frozen=True)
class Classification:
    """Mono/epi/strictness verdict with exact norm-control constants.

    In finite dimension every image is closed, so `strict` is always true;
    the constants are the least ones in the sense of Banach-space strictness:
    `strict_mono_constant` C with ||e|| <= C ||T e||, and
    `strict_epi_constant` C with inf-preimage-norm <= C ||f|| on the image.
    A constant is None when the corresponding side is degenerate (zero map).
    """

    mono: bool
    epi: bool
    strict: bool
    strict_mono_constant: NormValue | None
    strict_epi_constant: NormValue | None


def classify(
    field: FieldSpec,
    rows: Sequence[SparseRow],
    row_weights: Sequence[NormValue],
    col_weights: Sequence[NormValue],
) -> Classification:
    """Classify the map given by sparse `rows`, one per codomain coordinate.

    `col_weights` weight the domain and `row_weights` the codomain.  Both
    constants are the inverse of the smallest pivot score of
    `NormAwareElimination`, the least singular value of the map.  That is
    the last pivot's score, one product of norm values (`smallest_score`),
    in `int` exponent arithmetic where the weights are integral.
    """
    elim = NormAwareElimination(field, rows, row_weights, col_weights)
    r = elim.rank
    mono = r == len(col_weights)
    inverse = elim.smallest_score().inverse() if r > 0 else None
    if not mono:
        mono_c = None
    elif r == 0:
        mono_c = NormValue.one()  # zero-dimensional domain
    else:
        mono_c = inverse
    return Classification(
        mono=mono,
        epi=r == len(row_weights),
        strict=True,
        strict_mono_constant=mono_c,
        strict_epi_constant=inverse,
    )
