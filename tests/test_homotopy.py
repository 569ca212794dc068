"""Morphism verdicts: epimorphisms, homotopy epimorphisms, transversality."""

from afnd.affinoid import (
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    quotient,
    rational_localization,
    weierstrass_localization,
)
from afnd.homotopy import (
    FAILS,
    HOLDS,
    UNRESOLVED,
    check_transversal,
    is_epimorphism,
    is_homotopy_epi,
)
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, parse_element

Q5 = FieldSpec.padic(5)
D = 10


def unit_disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


def make_base():
    return free_affinoid(unit_disc())


def test_identity_is_epi():
    A = make_base()
    assert is_epimorphism(A, A, D).holds


def test_free_extension_is_not_epi():
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    v = is_epimorphism(A, B, D)
    assert v.status == FAILS
    # Rank-nullity on the fold map: the kernel rank is the source dimension
    # minus the rank of one reduction.
    assert v.detail == "multiplication map not bijective: kernel of rank 220"


def test_closed_immersion_epi_but_not_homotopy_epi():
    A = make_base()
    k = quotient(A, [parse_element("x", A.ambient)])
    assert is_epimorphism(A, k, D).holds
    v = is_homotopy_epi(A, k, D)
    assert v.status == FAILS
    assert v.homology_ranks[-1] == 1
    assert v.witness is not None


def test_weierstrass_hoepi():
    A = make_base()
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    assert is_homotopy_epi(A, V, D).holds


def test_laurent_hoepi():
    A = make_base()
    V = laurent_localization(
        A, g=[parse_element("x", A.ambient)], g_radii=[NormValue.of_rational(5)]
    )
    assert is_homotopy_epi(A, V, D).holds


def test_certified_rational_hoepi():
    A = make_base()
    f = [parse_element("x", A.ambient)]
    g = parse_element("x - 1", A.ambient)
    cert = BezoutCertificate(
        parse_element("-1", A.ambient), (parse_element("1", A.ambient),)
    )
    V = rational_localization(
        A, f, g, [NormValue.one()], certificate=cert, epsilon=NormValue.one()
    )
    v = is_homotopy_epi(A, V, D)
    assert v.holds
    assert "step" in v.detail  # verified along the localization chain


def test_hoepi_unresolved_without_resolution():
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    assert is_homotopy_epi(A, B, D).status == UNRESOLVED


def test_transversal_module_vs_disjoint_localization():
    A = make_base()
    M = quotient(A, [parse_element("x", A.ambient)])
    V = laurent_localization(
        A, g=[parse_element("x", A.ambient)], g_radii=[NormValue.of_rational(5)]
    )
    v = check_transversal(M, A, V, D)
    assert v.status == HOLDS
    assert all(r == 0 for r in v.homology_ranks.values())


def test_non_transversal_fiber_probe():
    A = make_base()
    M = quotient(A, [parse_element("x", A.ambient)])
    # The fiber at x = 0 meets M non-flatly: Tor_1 = k survives.
    from afnd.complexes import quotient_resolution

    res = quotient_resolution(A, [parse_element("x", A.ambient)])
    v = check_transversal(M, A, M, D, resolution=res)
    assert v.status == FAILS
    assert v.homology_ranks[-1] == 1
    assert v.witness is not None
