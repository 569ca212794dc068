"""No `fails` without a witness; skipped without hypothesis.

A domain is one or two `bound f r` / `invert f r` steps over the 5-adic
unit disc, with f a random polynomial in x of at most two terms.  Such a
domain is a rational subdomain, so both verdicts should hold; whatever the
degree-bounded layers make of it, a `fails` must carry the cycle or the
unhit target monomial that shows it.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import (  # noqa: E402
    free_affinoid,
    laurent_localization,
    weierstrass_localization,
)
from afnd.homotopy import FAILS, is_epimorphism, is_homotopy_epi  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement  # noqa: E402

DISC = Polyradius(FieldSpec.padic(5), ("x",), (NormValue.one(),))

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


def localize(base, kind, poly, r):
    """`bound f 5^r` or `invert f 5^r` on top of `base`."""
    f = TateElement.zero(base.ambient)
    for c, k in poly:
        e = (k,) + (0,) * (base.ambient.nvars - 1)
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
