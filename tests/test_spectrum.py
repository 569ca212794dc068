"""Point samples, exact seminorms, and pointwise cover falsification."""

from fractions import Fraction

import pytest

from afnd.affinoid import (
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    quotient,
    rational_localization,
    weierstrass_localization,
)
from afnd.scalar import FieldSpec, NormValue
from afnd.spectrum import (
    GaussPoint,
    RigidPoint,
    conservativity_probe,
    cover_check,
    default_sample,
    domain_of,
    member,
    seminorm,
)
from afnd.tate import Polyradius, parse_element
from helpers import of_rational

Q5 = FieldSpec.padic(5)
UNIT = Polyradius(Q5, ("x",), (NormValue.one(),))


def test_rigid_seminorm():
    f = parse_element("x^2 + 5", UNIT)
    pt = RigidPoint((Fraction(5),))
    # f(5) = 30, |30|_5 = 1/5
    assert seminorm(pt, f) == NormValue.prime_power(5, -1)


def test_gauss_seminorm():
    f = parse_element("x + 5", UNIT)
    pt = GaussPoint((Fraction(0),), (NormValue.prime_power(5, -2),))
    # max(|1| * 5^-2, |5|) = 1/5
    assert seminorm(pt, f) == NormValue.prime_power(5, -1)
    assert str(pt) == "gauss(0±5^-2)"


def test_default_sample_shape():
    pts = default_sample(UNIT)
    names = [str(p) for p in pts]
    assert names[0] == "rigid(0)"
    assert "gauss(0±5^-1/2)" in names
    assert len(pts) == 9


def test_default_sample_needs_padic():
    triv = Polyradius(FieldSpec.trivial(), ("x",), (NormValue.one(),))
    with pytest.raises(ValueError):
        default_sample(triv)


def make_cover(inner_exp, outer_radius):
    A = free_affinoid(UNIT)
    x = parse_element("x", A.ambient)
    v1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, inner_exp)])
    v2 = laurent_localization(A, g=[x], g_radii=[of_rational(outer_radius)])
    return A, v1, v2


def test_full_cover_passes():
    A, v1, v2 = make_cover(-1, 5)
    report = cover_check(A, [v1, v2])
    assert report.covered
    assert report.points_checked == 9


def test_gap_cover_reports_gauss_witness():
    # |x| <= 1/5 and |x| >= 1 miss the radius 5^(-1/2) Gauss point.
    A, v1, v2 = make_cover(-1, 1)
    report = cover_check(A, [v1, v2])
    assert not report.covered
    assert [str(w) for w in report.witnesses] == ["gauss(0±5^-1/2)"]


def test_cover_check_rejects_a_piece_on_another_polydisc():
    """A piece localizing the disc in y would be read on the sample of the
    disc in x, where it would pass every point."""
    A = free_affinoid(UNIT)
    B = free_affinoid(Polyradius(Q5, ("y",), (NormValue.one(),)))
    V = weierstrass_localization(
        B, [parse_element("y", B.ambient)], [NormValue.one()]
    )
    with pytest.raises(ValueError, match="localize the polydisc"):
        cover_check(A, [V])


def localized_base(outer_radius):
    """V = {|x| <= 5^-1} in the unit disc, covered by |x| <= 5^-2 and
    |x| >= 1/outer_radius."""
    A = free_affinoid(UNIT)
    x = parse_element("x", A.ambient)
    V = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    xv = x.in_ambient(V.ambient)
    w1 = weierstrass_localization(V, [xv], [NormValue.prime_power(5, -2)])
    w2 = laurent_localization(V, g=[xv], g_radii=[of_rational(outer_radius)])
    return V, [w1, w2]


def quotient_base(relation):
    """M = A/(relation), one point, covered by |x| >= 5^-1."""
    A = free_affinoid(UNIT)
    M = quotient(A, [parse_element(relation, A.ambient)])
    x = parse_element("x", M.ambient)
    return M, [laurent_localization(M, g=[x], g_radii=[of_rational(5)])]


def point_base():
    """Sp(K), the polydisc with no variables, and |5| <= 5^-2, which misses
    its one point."""
    A = free_affinoid(Polyradius(Q5, (), ()))
    five = parse_element("5", A.ambient)
    return A, [
        weierstrass_localization(A, [five], [NormValue.prime_power(5, -2)])
    ]


@pytest.mark.parametrize(
    "cover, covered, points, witnesses",
    [
        # Only the six sample points of the disc that lie in V are checked.
        (localized_base(25), True, 6, []),
        (localized_base(5), False, 6, ["gauss(0±5^-3/2)"]),
        # Sp(M) is one rigid point; Gauss points never lie in it.
        (quotient_base("x - 1"), True, 1, []),
        (quotient_base("x"), False, 1, ["rigid(0)"]),
        # The sample on no variables is that one point, once.
        (point_base(), False, 1, ["rigid()"]),
    ],
    ids=["localized", "localized-gap", "quotient", "quotient-gap", "point"],
)
def test_cover_check_samples_only_the_points_of_the_base(
    cover, covered, points, witnesses
):
    report = cover_check(*cover)
    assert report.covered == covered
    assert report.points_checked == points
    assert [str(w) for w in report.witnesses] == witnesses


def test_membership_mixed_conditions():
    A, v1, v2 = make_cover(-1, 5)
    d2 = domain_of(v2)
    assert member(GaussPoint((Fraction(0),), (NormValue.one(),)), d2)
    assert not member(RigidPoint((Fraction(25),)), d2)


def test_conservativity_probe_on_gap():
    A, v1, v2 = make_cover(-1, 1)
    x = parse_element("x", A.ambient)
    # The annulus 5^(-3/4) <= |x| <= 5^(-1/4) sits inside the gap.
    probe = laurent_localization(
        weierstrass_localization(
            A, [x], [NormValue.prime_power(5, Fraction(-1, 4))]
        ),
        g=[x],
        g_radii=[NormValue.prime_power(5, Fraction(3, 4))],
    )
    report = conservativity_probe(A, [v1, v2], probe)
    assert report.probe_nonzero
    assert report.tensors_zero == [True, True]
    assert report.violated


def test_conservativity_probe_inside_cover():
    A, v1, v2 = make_cover(-1, 5)
    x = parse_element("x", A.ambient)
    probe = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    report = conservativity_probe(A, [v1, v2], probe)
    assert not report.violated


def test_domain_of_chained_localization_reads_every_step():
    A = free_affinoid(UNIT)
    x = parse_element("x", A.ambient)
    step = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    V = laurent_localization(
        step, g=[x.in_ambient(step.ambient)], g_radii=[of_rational(25)]
    )
    dom = domain_of(V)
    assert [i.num.ambient for i in dom] == [UNIT, UNIT]
    inside = GaussPoint((Fraction(0),), (NormValue.prime_power(5, Fraction(-3, 2)),))
    too_big = GaussPoint((Fraction(0),), (NormValue.one(),))
    too_small = RigidPoint((Fraction(125),))
    assert member(inside, dom)
    assert not member(too_big, dom)
    assert not member(too_small, dom)


def test_domain_of_rejects_localization_variables():
    A = free_affinoid(UNIT)
    x = parse_element("x", A.ambient)
    step = weierstrass_localization(A, [x], [NormValue.one()])
    t = parse_element(step.ambient.names[-1], step.ambient)
    V = weierstrass_localization(step, [t], [NormValue.prime_power(5, -1)])
    with pytest.raises(ValueError, match="localization variable"):
        domain_of(V)


@pytest.mark.parametrize("r", [NormValue.one(), NormValue.prime_power(5, -1)])
def test_rational_domain_bound_from_certificate_is_sound_and_exact(r):
    # -1/5*(x - 5) + 1/5*x = 1, so |x - 5| >= 1/max(5, 5 r) = 1/5 on
    # {|x| <= r |x - 5|}: the inverse of x - 5 gets radius 5.
    A = free_affinoid(UNIT)
    x = parse_element("x", A.ambient)
    g = parse_element("x - 5", A.ambient)
    cert = BezoutCertificate(
        parse_element("-1/5", A.ambient), (parse_element("1/5", A.ambient),)
    )
    V = rational_localization(A, [x], g, [r], certificate=cert)
    step = V.localization.base
    s = step.ambient.names[-1]
    assert step.ambient.radius_of(s) == of_rational(5)
    # The Laurent step cuts out nothing more than the rational domain.
    dom = domain_of(V)
    for pt in default_sample(UNIT):
        assert member(pt, dom) == (seminorm(pt, x) <= r * seminorm(pt, g))
    # |x - 5| = 1/5 at the Gauss point of radius 1/5, which lies in the
    # domain for r = 1: a lower bound |x - 5| >= 1 would exclude it.
    gauss = GaussPoint((Fraction(0),), (NormValue.prime_power(5, -1),))
    assert seminorm(gauss, g) == NormValue.prime_power(5, -1)
    assert member(gauss, dom) == (r == NormValue.one())
