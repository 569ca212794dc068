"""Checks and set-ups that several test modules share."""

from afnd.cech import acyclicity_check
from afnd.homotopy import is_homotopy_epi


def verify_d_squared(cx, degree):
    """Exact check that consecutive differentials of `cx` compose to zero."""
    for n in cx.degrees():
        if n + 2 not in cx.levels:
            continue
        m1 = cx.matrix(n, degree)
        m2 = cx.matrix(n + 1, m1.target.truncation)
        # Row i of d^{n+1} d^n is the combination of the rows of d^n
        # that row i of d^{n+1} selects.
        for row in m2.entries:
            composed = {}
            for k, a in row.items():
                for j, b in m1.entries[k].items():
                    composed[j] = composed.get(j, 0) + a * b
            if any(composed.values()):
                return False
    return True


def proved_acyclicity(cover, depth, degree):
    """`acyclicity_check` with each piece's homotopy-epi verdict proved
    here, as the scenario runner proves it before a `cech` check."""
    verdicts = [
        is_homotopy_epi(cover.base, piece, degree) for piece in cover.pieces
    ]
    return acyclicity_check(cover, depth, degree, verdicts)
