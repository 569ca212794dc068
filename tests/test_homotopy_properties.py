"""No `fails` without a witness, and fold maps certified without a matrix
only where the matrix agrees; skipped without hypothesis.

A domain is one or two `bound f r` / `invert f r` steps over the 5-adic
unit disc, with f a random polynomial in x of at most two terms.  Such a
domain is a rational subdomain, so both verdicts should hold; whatever the
degree-bounded layers make of it, a `fails` must carry the cycle or the
unhit target monomial that shows it.  The same steps over the closed unit
bidisc, with f in x and y, often leave a relation such as T - x*y to the
generic layer.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import afnd.homotopy  # noqa: E402
from afnd.affinoid import (  # noqa: E402
    AffinoidPresentation,
    free_affinoid,
    laurent_localization,
    weierstrass_localization,
)
from afnd.complexes import homology  # noqa: E402
from afnd.homotopy import FAILS, is_epimorphism, is_homotopy_epi  # noqa: E402
from afnd.linalg import kernel_basis  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement  # noqa: E402
from helpers import fold_complex  # noqa: E402

DISC = Polyradius(FieldSpec.padic(5), ("x",), (NormValue.one(),))
BIDISC = Polyradius(
    FieldSpec.padic(5), ("x", "y"), (NormValue.one(), NormValue.one())
)

terms = st.tuples(
    st.sampled_from([Fraction(1), Fraction(3), Fraction(5), Fraction(1, 5)]),
    st.integers(0, 3),
)
steps = st.tuples(
    st.sampled_from(["bound", "invert"]),
    st.lists(terms, min_size=1, max_size=2).filter(
        lambda ts: any(k for _, k in ts)
    ),
    st.integers(-2, 2),
)


bidisc_terms = st.tuples(
    st.sampled_from([Fraction(1), Fraction(3), Fraction(5), Fraction(1, 5)]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
bidisc_steps = st.tuples(
    st.sampled_from(["bound", "invert"]),
    st.lists(bidisc_terms, min_size=1, max_size=2).filter(
        lambda ts: any(sum(k) for _, k in ts)
    ),
    st.integers(-2, 2),
)


def localize(base, kind, poly, r):
    """`bound f 5^r` or `invert f 5^r` on top of `base`; an exponent of f is
    a power of x or a tuple of powers of the first variables."""
    f = TateElement.zero(base.ambient)
    for c, k in poly:
        k = k if isinstance(k, tuple) else (k,)
        e = k + (0,) * (base.ambient.nvars - len(k))
        f = f + TateElement.monomial(base.ambient, e, c)
    radius = NormValue.prime_power(5, r)
    if kind == "bound":
        return weierstrass_localization(base, [f], [radius])
    return laurent_localization(base, g=[f], g_radii=[radius])


@settings(max_examples=25, deadline=None)
@given(st.lists(steps, min_size=1, max_size=2), st.integers(2, 6))
def test_every_failed_epi_verdict_has_a_witness(chain, degree):
    base = free_affinoid(DISC)
    domain = base
    for kind, poly, r in chain:
        domain = localize(domain, kind, poly, r)
    for verdict in (
        is_epimorphism(base, domain, degree),
        is_homotopy_epi(base, domain, degree),
    ):
        if verdict.status == FAILS:
            assert verdict.witness is not None, verdict.detail


def _verdicts(base, domain, degree):
    return [
        (v.status, v.detail, v.homology_ranks, v.witness)
        for v in (
            is_epimorphism(base, domain, degree),
            is_homotopy_epi(base, domain, degree),
        )
    ]


def assert_bijective(fold, degree):
    """The fold matrix, assembled and eliminated, has no kernel and hits
    every degree-bounded target basis monomial."""
    d0 = fold.matrix(0, degree)
    assert kernel_basis(d0.entries, d0.source.dim) == []
    rep = homology(fold, 1, degree)
    assert rep.is_zero
    assert rep.boundary_rank == fold.level_basis(1, degree).dim


def assert_certified_folds_agree(ambient, chain, degree):
    """Wherever `_exact_bijection` certifies a fold map, the matrix it
    skips has no kernel and hits the whole degree-bounded target basis,
    and both verdicts are the ones the matrix path gives."""
    base = free_affinoid(ambient)
    domain = base
    for kind, poly, r in chain:
        domain = localize(domain, kind, poly, r)
    real = afnd.homotopy._exact_bijection
    certified = []

    def recording(big, target, inverse):
        if real(big, target, inverse):
            rename = {v: k for k, v in inverse.items()}
            certified.append(fold_complex(big, target, rename))
            return True
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(afnd.homotopy, "_exact_bijection", recording)
        fast = _verdicts(base, domain, degree)
        mp.setattr(afnd.homotopy, "_exact_bijection", lambda *args: False)
        assert _verdicts(base, domain, degree) == fast
    for fold in certified:
        assert_bijective(fold, degree)


@settings(max_examples=25, deadline=None)
@given(st.lists(steps, min_size=1, max_size=2), st.integers(2, 6))
def test_certified_fold_maps_agree_with_their_matrices(chain, degree):
    assert_certified_folds_agree(DISC, chain, degree)


@settings(max_examples=15, deadline=None)
@given(st.lists(bidisc_steps, min_size=1, max_size=2), st.integers(2, 4))
def test_certified_fold_maps_agree_with_their_matrices_over_the_bidisc(
    chain, degree
):
    assert_certified_folds_agree(BIDISC, chain, degree)


# Binomials and trinomials of degree <= 2 in three variables: substitution,
# Laurent pair, generic and unit relations all occur.
relation_terms = st.lists(
    st.tuples(
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(5)]),
        st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2),
    ),
    min_size=1, max_size=3,
)


def presentation(ambient, relations):
    return AffinoidPresentation(ambient, [
        sum(
            (TateElement.monomial(ambient, e[:ambient.nvars], c)
             for c, e in terms),
            TateElement.zero(ambient),
        )
        for terms in relations
    ])


F = Fraction
# Relations in (x, y, y1), as the terms (coefficient, exponent) they sum.
PAIR = [(F(1), (1, 1, 0)), (F(5), (0, 0, 0))]  # x*y + 5
COPY = [(F(1), (0, 0, 1)), (F(-1), (0, 1, 0))]  # y1 - y: y1 := y
SQUARE_X = [(F(1), (1, 0, 0)), (F(-1), (0, 2, 0))]  # x - y^2: x := y^2
QUADRATIC = [(F(1), (0, 1, 0)), (F(-3), (2, 0, 0))]  # y - 3x^2: y := 3x^2
TWO_TERMS = [(F(1), (0, 1, 0)), (F(-1), (1, 0, 0)), (F(-5), (2, 0, 0))]
GENERIC = [(F(1), (2, 0, 0)), (F(-5), (0, 1, 0))]  # x^2 - 5y
UNIT = [(F(5), (1, 0, 0)), (F(1), (0, 0, 0))]  # 5x + 1: the zero algebra


@settings(max_examples=60, deadline=None)
@given(
    st.lists(relation_terms, max_size=2),
    st.lists(relation_terms, max_size=3),
    st.integers(2, 4),
)
# One pair per condition of the certificate, each a fold map that is not
# bijective although the other conditions hold.
@example([PAIR], [COPY], 3)  # Laurent pairs not carried onto the target's
@example([QUADRATIC], [COPY, SQUARE_X], 3)  # y -> 3x^2, not c*y
@example([TWO_TERMS], [COPY, SQUARE_X], 3)  # y -> x + 5x^2
@example([], [COPY, SQUARE_X], 3)  # sigma not onto the target's variables
@example([GENERIC], [COPY], 3)  # a generic relation
@example([UNIT], [COPY], 3)  # the zero algebra
def test_fold_map_certificate_is_sound_on_any_pair(
    target_relations, big_relations, degree
):
    """On any presentations of k{x, y} and k{x, y, y1}, with y1 the renamed
    copy of y, a fold map that `_exact_bijection` certifies has a matrix
    with no kernel and full rank onto the target basis."""
    target = presentation(BIDISC, target_relations)
    big = presentation(BIDISC.extend(["y1"], [NormValue.one()]), big_relations)
    if afnd.homotopy._exact_bijection(big, target, {"y1": "y"}):
        assert_bijective(fold_complex(big, target, {"y": "y1"}), degree)
