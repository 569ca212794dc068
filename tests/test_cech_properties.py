"""Oracles for cover complexes on random interval covers of the unit disk
and the unit bidisk; skipped without hypothesis.

A piece is a closed interval of log-radii of one coordinate: a disc
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
from afnd.complexes import strict_exactness  # noqa: E402
from helpers import (  # noqa: E402
    exactness_facts, reference_strict_exactness, verify_d_squared
)

DEGREE = 6
Q5 = FieldSpec.padic(5)
BASE = free_affinoid(Polyradius(Q5, ("x",), (NormValue.one(),)))
BIDISC = free_affinoid(Polyradius(Q5, ("x", "y"), (NormValue.one(),) * 2))


def piece(kind, a, b, base=BASE, var="x"):
    """|var| <= 5^-a ("disc"), |var| >= 5^-b ("outer"), or both
    ("annulus"), in `base`."""
    X = TateElement.variable(base.ambient, var)
    if kind == "disc":
        return weierstrass_localization(base, [X], [NormValue.prime_power(5, -a)])
    if kind == "outer":
        return laurent_localization(
            base, g=[X], g_radii=[NormValue.prime_power(5, b)]
        )
    return laurent_localization(
        base,
        f=[X],
        f_radii=[NormValue.prime_power(5, -a)],
        g=[X],
        g_radii=[NormValue.prime_power(5, max(a, b))],
    )


kinds = st.sampled_from(["disc", "outer", "annulus"])
pieces = st.builds(piece, kinds, st.integers(0, 2), st.integers(0, 2))
covers = st.lists(pieces, min_size=2, max_size=3)
bidisc_pieces = st.builds(
    piece, kinds, st.integers(0, 2), st.integers(0, 2),
    st.just(BIDISC), st.sampled_from(["x", "y"]),
)
bidisc_covers = st.lists(bidisc_pieces, min_size=2, max_size=2)


def summary(report):
    """Everything a Cech report states, in the order the CLI prints it."""
    positions = [
        (rep.degree, rep.is_zero, rep.rank, constant)
        for rep, constant in report.positions
    ]
    head_rank = report.head.rank if report.head else 0
    return (report.status, head_rank, report.constant, positions)


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


@pytest.mark.parametrize("degree", [4, 8, 16])
@pytest.mark.parametrize(
    "base, family_of",
    [(BASE, covers), (BIDISC, bidisc_covers)],
    ids=["disc", "bidisc"],
)
def test_rank_count_agrees_with_homology(base, family_of, degree):
    """Deciding a position by the rank count, with one elimination per
    differential, states what per-position homology and a constant from
    its own elimination state."""

    @settings(max_examples=6, deadline=None)
    @given(family_of)
    def check(family):
        cx = build_complex(CoverData(base, tuple(family)), len(family))
        positions = range(len(family) + 1)
        got = strict_exactness(cx, degree, positions)
        want = reference_strict_exactness(cx, degree, positions)
        assert exactness_facts(got) == exactness_facts(want)

    check()
