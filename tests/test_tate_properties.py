"""Property tests of Gauss norms: multiplicativity on polydiscs of factored
radius, for the Gauss norm and for the Gauss-point seminorms inside it;
skipped without hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement  # noqa: E402

Q5 = FieldSpec.padic(5)
DEGREE = 4

# Factored values over primes both equal to and different from p = 5.
factored = st.dictionaries(
    st.sampled_from([2, 3, 5]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
).map(NormValue)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def polydisc_pairs(draw):
    """A one- or two-variable polydisc and two of its elements."""
    nvars = draw(st.integers(1, 2))
    radii = tuple(draw(factored) for _ in range(nvars))
    ambient = Polyradius(Q5, ("x", "y")[:nvars], radii)
    exponents = st.tuples(*[st.integers(0, DEGREE)] * nvars)
    elements = st.dictionaries(exponents, coefficients, max_size=5).map(
        lambda terms: TateElement(ambient, terms)
    )
    return ambient, draw(elements), draw(elements)


@settings(max_examples=60, deadline=None)
@given(polydisc_pairs())
def test_gauss_norm_is_multiplicative(case):
    _, f, g = case
    assert (f * g).gauss_norm() == f.gauss_norm() * g.gauss_norm()


@settings(max_examples=60, deadline=None)
@given(polydisc_pairs(), st.lists(factored, min_size=2, max_size=2))
def test_gauss_seminorms_are_multiplicative(case, shrink):
    ambient, f, g = case
    # rho_i = r_i * s_i with s_i <= 1, so 0 < rho <= r.
    rho = [
        r * (s if s <= NormValue.one() else s.inverse())
        for r, s in zip(ambient.radii, shrink)
    ]
    assert (f * g).gauss_seminorm(rho) == (
        f.gauss_seminorm(rho) * g.gauss_seminorm(rho)
    )
