"""Cover complexes and acyclicity verdicts."""

import pytest

import afnd.cech
from afnd.affinoid import (
    AffinoidPresentation,
    free_affinoid,
    laurent_localization,
    quotient,
    weierstrass_localization,
)
from afnd.cech import CoverData, acyclicity_check, build_complex
from afnd.homotopy import is_homotopy_epi
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, parse_element
from helpers import of_rational, proved_acyclicity, verify_d_squared

Q5 = FieldSpec.padic(5)


def unit_disc():
    return Polyradius(Q5, ("x",), (NormValue.one(),))


def x_of(alg):
    return parse_element("x", alg.ambient)


@pytest.fixture
def disk_cover():
    """|x| <= 1/5 and |x| >= 1/5 cover the unit disk."""
    A = free_affinoid(unit_disc())
    v1 = weierstrass_localization(A, [x_of(A)], [NormValue.prime_power(5, -1)])
    v2 = laurent_localization(A, g=[x_of(A)], g_radii=[of_rational(5)])
    return CoverData(A, (v1, v2))


@pytest.fixture
def three_piece_cover():
    """|x| <= 5^-2, the chained annulus 5^-2 <= |x| <= 5^-1 and |x| >= 5^-1."""
    A = free_affinoid(unit_disc())
    x = x_of(A)
    v1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, -2)])
    v2 = laurent_localization(
        A,
        f=[x],
        f_radii=[NormValue.prime_power(5, -1)],
        g=[x],
        g_radii=[of_rational(25)],
    )
    v3 = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    return CoverData(A, (v1, v2, v3))


def test_cover_data_validates_pieces():
    A = free_affinoid(unit_disc())
    other = free_affinoid(Polyradius(Q5, ("y",), (NormValue.one(),)))
    with pytest.raises(ValueError):
        CoverData(A, (other,))


def test_alternating_complex_d_squared(disk_cover):
    cx = build_complex(disk_cover, 2)
    assert verify_d_squared(cx, 8)


def test_acyclicity_exact_with_unit_constant(disk_cover):
    report = proved_acyclicity(disk_cover, 2, 12)
    assert report.exact
    assert str(report.constant) == "1"
    assert all(v.exact for v in report.positions)


def test_acyclicity_refuses_unverified_pieces():
    A = free_affinoid(unit_disc())
    k = quotient(A, [x_of(A)])  # a closed immersion, not a localization
    cover = CoverData(A, (k,))
    report = proved_acyclicity(cover, 1, 8)
    assert report.status == "refused"
    assert "not verified" in report.detail


def test_acyclicity_detects_gap():
    A = free_affinoid(unit_disc())
    v1 = weierstrass_localization(A, [x_of(A)], [NormValue.prime_power(5, -2)])
    v2 = laurent_localization(A, g=[x_of(A)], g_radii=[of_rational(5)])
    report = proved_acyclicity(CoverData(A, (v1, v2)), 2, 8)
    assert report.status == "fails"


def test_three_piece_cover_exact(three_piece_cover):
    report = proved_acyclicity(three_piece_cover, 3, 8)
    assert report.exact
    assert str(report.constant) == "1"


def test_restriction_renames_follow_the_block_layout(
    three_piece_cover, monkeypatch
):
    """Each intersection of two or more pieces is one pushout, and each
    restriction sends every piece's block of variables to that piece's
    block.  The pieces own T, then T and T', then T; so the triple
    intersection has the blocks T | T', T'' | T'''."""
    calls = []
    real = afnd.cech.tensor_over

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(afnd.cech, "tensor_over", counting)
    cx = build_complex(three_piece_cover, 3)
    assert len(calls) == 4  # (0, 1), (0, 2), (1, 2) and (0, 1, 2)
    assert [s.label for s in cx.levels[2]] == [(0, 1), (0, 2), (1, 2)]
    assert cx.levels[3][0].algebra.ambient.names == (
        "x", "T", "T'", "T''", "T'''"
    )
    renames = {
        n: {key: c.rename for key, c in comps.items()}
        for n, comps in cx.components.items()
    }
    assert renames == {
        0: {(0, 0): {}, (1, 0): {}, (2, 0): {}},
        1: {
            (0, 0): {},
            (0, 1): {"T": "T'", "T'": "T''"},
            (1, 0): {},
            (1, 2): {"T": "T'"},
            (2, 1): {},
            (2, 2): {"T": "T''"},
        },
        2: {
            (0, 0): {},
            (0, 1): {"T'": "T'''"},
            (0, 2): {"T": "T'", "T'": "T''", "T''": "T'''"},
        },
    }


def test_acyclicity_takes_proved_piece_verdicts(disk_cover):
    verdicts = [
        is_homotopy_epi(disk_cover.base, piece, 8) for piece in disk_cover.pieces
    ]
    report = acyclicity_check(disk_cover, 2, 8, verdicts)
    assert report.exact
    with pytest.raises(ValueError):
        acyclicity_check(disk_cover, 2, 8, verdicts[:1])
    with pytest.raises(ValueError):
        acyclicity_check(disk_cover, 2, 6, verdicts)


def test_acyclicity_at_depth_zero_fails(disk_cover):
    # Without intersections the augmented complex is the base alone, so
    # its head has the whole degree-bounded base as kernel.
    report = proved_acyclicity(disk_cover, 0, 8)
    assert report.status == "fails"
    assert report.injectivity_rank == len(disk_cover.base.monomial_basis(8))


def test_no_images_into_a_level_of_zero_algebras(three_piece_cover, monkeypatch):
    """V1 and V3 are disjoint, so the triple intersection is the zero
    algebra and d^2 makes no image at all.  Level 2 is mixed: V1 ∩ V3 is
    zero too, but d^1 still pushes into it, since every image sets the
    growth that truncates the other summands."""
    cx = build_complex(three_piece_cover, 3)
    assert [s.algebra.is_zero_algebra for s in cx.levels[2]] == [
        False, True, False
    ]
    assert cx.levels[3][0].algebra.is_zero_algebra
    targets = []
    real = AffinoidPresentation.pushed_images

    def recording(self, *args):
        targets.append(self)
        return real(self, *args)

    monkeypatch.setattr(AffinoidPresentation, "pushed_images", recording)
    top = cx.matrix(2, 8)
    assert targets == [] and top.entries == [] and top.target.dim == 0
    cx.matrix(1, 8)
    assert {id(a) for a in targets} == {id(s.algebra) for s in cx.levels[2]}
