"""Strictness of maps between finite-dimensional non-Archimedean normed spaces.

A space is a finite orthogonal sum of one-dimensional spaces k_r, recorded by
its weight list; the norm of a coordinate vector is max_i |c_i| w_i
(a `scalar.max_norm`).  In this class every image is closed, so every map
is strict, and its strictness constant has an exact closed form.
`strict_epi_constant` reads it off a map's `NormAwareElimination`; it is
the one strictness computation.  `complexes.strict_exactness` builds one
elimination per differential and reads both the rank for its exactness
count and, through this function, the constant from it.
"""

from __future__ import annotations

from afnd.linalg import NormAwareElimination
from afnd.scalar import NormValue


def strict_epi_constant(elim: NormAwareElimination) -> NormValue | None:
    """The least C with inf-preimage-norm <= C ||f|| for every f in the
    image of the map that `elim` eliminated; None for the zero map.

    C is the inverse of the smallest pivot score of the elimination, the
    least singular value of the map between its weighted spaces.  That is
    the last pivot's score, one product of norm values (`smallest_score`),
    in `int` exponent arithmetic where the weights are integral.
    """
    return elim.smallest_score().inverse() if elim.rank else None
