"""Oracles for cover complexes on random one-variable interval covers;
skipped without hypothesis.

A piece is a closed interval of log-radii of the unit disk: a disc
|x| <= 5^-a, an outer region |x| >= 5^-b, or an annulus between the two.
Random families need not cover the disk, so both verdicts occur.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import (  # noqa: E402
    free_affinoid,
    laurent_localization,
    weierstrass_localization,
)
from afnd.cech import CoverData, acyclicity_check, build_complex  # noqa: E402
from afnd.homotopy import is_homotopy_epi  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement  # noqa: E402
from helpers import verify_d_squared  # noqa: E402

DEGREE = 6
BASE = free_affinoid(Polyradius(FieldSpec.padic(5), ("x",), (NormValue.one(),)))
X = TateElement.variable(BASE.ambient, "x")


def piece(kind, a, b):
    """|x| <= 5^-a ("disc"), |x| >= 5^-b ("outer"), or both ("annulus")."""
    if kind == "disc":
        return weierstrass_localization(BASE, [X], [NormValue.prime_power(5, -a)])
    if kind == "outer":
        return laurent_localization(
            BASE, g=[X], g_radii=[NormValue.prime_power(5, b)]
        )
    return laurent_localization(
        BASE,
        f=[X],
        f_radii=[NormValue.prime_power(5, -a)],
        g=[X],
        g_radii=[NormValue.prime_power(5, max(a, b))],
    )


pieces = st.builds(
    piece,
    st.sampled_from(["disc", "outer", "annulus"]),
    st.integers(0, 2),
    st.integers(0, 2),
)
covers = st.lists(pieces, min_size=2, max_size=3)


def summary(report):
    """Everything a Cech report states, in the order the CLI prints it."""
    positions = [
        (v.degree, v.exact, v.homology_rank, v.constant)
        for v in report.positions
    ]
    return (
        report.status, report.injectivity_rank, report.constant, positions
    )


@settings(max_examples=12, deadline=None)
@given(covers)
def test_cover_differential_squares_to_zero(family):
    cover = CoverData(BASE, tuple(family))
    assert verify_d_squared(build_complex(cover, len(family)), DEGREE)


@settings(max_examples=12, deadline=None)
@given(covers, st.randoms(use_true_random=False))
def test_permuting_pieces_keeps_the_verdict(family, rng):
    verdicts = [is_homotopy_epi(BASE, p, DEGREE) for p in family]
    order = list(range(len(family)))
    rng.shuffle(order)
    reports = [
        acyclicity_check(
            CoverData(BASE, tuple(family[i] for i in idx)),
            len(family),
            DEGREE,
            precondition=[verdicts[i] for i in idx],
        )
        for idx in (range(len(family)), order)
    ]
    assert summary(reports[0]) == summary(reports[1])
