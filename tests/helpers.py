"""Checks and set-ups that several test modules share."""

from fractions import Fraction

from afnd.cech import acyclicity_check
from afnd.complexes import ChainComplex, MapComponent, Summand
from afnd.homotopy import is_homotopy_epi
from afnd.scalar import NormValue
from afnd.tate import TateElement


def of_rational(a):
    """The factored norm value of a positive rational number."""
    if isinstance(a, float):
        raise TypeError(f"inexact value {a!r}")
    a = Fraction(a)
    if a <= 0:
        raise ValueError("need a positive rational")
    exps: dict[int, Fraction] = {}
    for n, sign in ((a.numerator, 1), (a.denominator, -1)):
        d = 2
        while d * d <= n:
            while n % d == 0:
                exps[d] = exps.get(d, Fraction(0)) + sign
                n //= d
            d += 1
        if n > 1:
            exps[n] = exps.get(n, Fraction(0)) + sign
    return NormValue(exps)


def pivot_scores(elim):
    """The pivot scores of a `NormAwareElimination`, in pivot order: its
    singular values, non-increasing."""
    return [elim._score(k) for k in range(elim.rank)]


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


def fold_complex(big, target, rename):
    """The two-level complex of `homotopy._reduce_fold_map`."""
    inverse = {v: k for k, v in rename.items()}
    one = TateElement.constant(target.ambient, 1)
    return ChainComplex(
        target.field,
        {0: [Summand(big, "source")], 1: [Summand(target, "target")]},
        {0: {(0, 0): MapComponent(one, inverse)}},
    )


def proved_acyclicity(cover, depth, degree):
    """`acyclicity_check` with each piece's homotopy-epi verdict proved
    here, as the scenario runner proves it before a `cech` check."""
    verdicts = [
        is_homotopy_epi(cover.base, piece, degree) for piece in cover.pieces
    ]
    return acyclicity_check(cover, depth, degree, verdicts)
