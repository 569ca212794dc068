"""Property tests of generic normal forms; skipped without hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import GENERIC_BOUNDED, free_affinoid, quotient  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement, parse_element  # noqa: E402

DEGREE = 6
BIDISC = Polyradius(
    FieldSpec.padic(5), ("x", "y"), (NormValue.one(), NormValue.of_rational(2))
)
RELATIONS = [
    "3*x^2 - 10*y", "x*y - 5 + x^3", "x^2*y + 5*x - 2*y^2", "y^2 - x^3 + 25",
]
PRESENTATIONS = [
    quotient(free_affinoid(BIDISC), [parse_element(r, BIDISC) for r in rels])
    for rels in [[r] for r in RELATIONS] + [RELATIONS[:2]]
]

exponents = st.tuples(st.integers(0, DEGREE), st.integers(0, DEGREE)).filter(
    lambda e: sum(e) <= DEGREE
)
coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=10)
elements = st.dictionaries(exponents, coefficients, max_size=8).map(
    lambda terms: TateElement(BIDISC, terms)
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRESENTATIONS), elements)
def test_generic_normal_form_is_a_projection(pres, w):
    assert pres.strategy == GENERIC_BOUNDED
    nf = pres.normal_form(w, DEGREE)
    assert pres.normal_form(nf, DEGREE) == nf
    assert pres.normal_form(w - nf, DEGREE).is_zero
    # The normal form lives on the basis, off every pivot monomial.
    assert set(nf.terms) <= set(pres.monomial_basis(DEGREE))
