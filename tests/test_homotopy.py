"""Morphism verdicts: epimorphisms, homotopy epimorphisms, transversality."""

import pathlib
from fractions import Fraction

import pytest

from afnd.affinoid import (
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.cli import parse_scenario
from afnd.complexes import derived_tensor
from afnd.homotopy import (
    FAILS,
    HOLDS,
    UNRESOLVED,
    _make_resolution,
    _reduce_fold_map,
    check_transversal,
    is_epimorphism,
    is_homotopy_epi,
)
from afnd.linalg import reduce_against, sparse_rref
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, TateElement, parse_element

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


# -- the fold map against a hand-written reference ---------------------------

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def reference_fold_map(big, target, rename, degree):
    """The fold map big -> target reduced by hand, without a ChainComplex.

    Columns are normal forms over the target basis at the growth degree;
    the kernel rank is the source dimension minus their rank, and the map
    is onto when every degree-bounded target monomial lies in their span.
    """
    inverse = {v: k for k, v in rename.items()}
    positions = [
        target.ambient.index(inverse.get(name, name))
        for name in big.ambient.names
    ]
    source = big.monomial_basis(degree)
    images = []
    growth = degree
    for e in source:
        merged = [0] * target.ambient.nvars
        for pos, k in zip(positions, e):
            merged[pos] += k
        elem = TateElement.monomial(target.ambient, tuple(merged), 1)
        growth = max(growth, target._shape_normal(elem).total_degree())
        images.append(elem)
    col_of = {e: i for i, e in enumerate(target.monomial_basis(growth))}
    span = []
    for elem in images:
        nf = target.normal_form(elem, growth)
        span.append({col_of[e]: c for e, c in nf.terms.items()})
    rows, pivots = sparse_rref(span)
    hit = all(
        not reduce_against({col_of[e]: Fraction(1)}, rows, pivots)
        for e in target.monomial_basis(degree)
    )
    return len(source) - len(pivots), hit


def scenario_pairs():
    """(scenario, base, piece) for every algebra of a bundled scenario that
    is presented over another one."""
    for path in sorted(SCENARIOS.glob("*.afnd")):
        algebras = parse_scenario(path.read_text(encoding="utf-8")).algebras
        for b, base in algebras.items():
            for p, piece in algebras.items():
                if piece is not base and piece.is_over(base):
                    yield f"{path.stem}:{b}->{p}", base, piece


def fold_maps(base, piece):
    """The fold maps behind `is_epimorphism` and the degree-zero check of
    `is_homotopy_epi`: (source, target, rename) triples."""
    square, rename = tensor_over(base, piece, piece)
    yield square, piece, rename
    res = _make_resolution(base, piece)
    if res is None:
        return
    cx, rename = derived_tensor(piece, res)
    pushout = cx.levels[0][0].algebra
    h0 = quotient(
        pushout,
        [f.in_ambient(pushout.ambient, rename) for f in res.relator_elements],
    )
    if not h0.is_zero_algebra:
        yield h0, piece, rename


def hand_maps():
    """Monomial maps with a kernel or a cokernel: (label, source, target,
    rename).  Fold maps of localizations are bijective, so these are what
    make the comparison see both outputs move."""
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    square, rename = tensor_over(A, B, B)
    yield "free extension", square, B, rename
    yield "inclusion", A, B, {}
    yield "closed immersion", A, quotient(A, [parse_element("x", A.ambient)]), {}
    generic = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    yield "generic quotient", generic["B"], generic["M"], {}
    yield "generic section", generic["M"], generic["B"], {}
    yield "generic to generic", generic["N"], generic["M"], {}


@pytest.mark.parametrize("degree", [6, 12])
def test_fold_map_matches_reference(degree):
    cases = [
        (label, big, target, rename)
        for label, base, piece in scenario_pairs()
        if not piece.is_zero_algebra
        for big, target, rename in fold_maps(base, piece)
    ]
    cases += hand_maps()
    assert len(cases) >= 26
    outcomes = set()
    for label, big, target, rename in cases:
        got = _reduce_fold_map(big, target, rename, degree)
        assert got == reference_fold_map(big, target, rename, degree), label
        outcomes.add((bool(got[0]), got[1]))
    assert outcomes == {(False, True), (True, True), (False, False)}
