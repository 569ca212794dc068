"""The default sample on random polydiscs; skipped without hypothesis."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.spectrum import GaussPoint, RigidPoint, default_sample  # noqa: E402
from afnd.tate import Polyradius  # noqa: E402

# Radii p^-q at or below 1, on and between the sample's own radii.
exponents = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def polydiscs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 3))
    qs = draw(st.lists(exponents, min_size=n, max_size=n))
    return Polyradius(
        FieldSpec.padic(p),
        tuple(f"x{i}" for i in range(len(qs))),
        tuple(NormValue.prime_power(p, -Fraction(q)) for q in qs),
    )


def point_of_spectrum(pt):
    """The point a sample names: on no variables, a Gauss point is the one
    point of Sp(K), as the rigid point is."""
    if isinstance(pt, GaussPoint) and not pt.center:
        return RigidPoint(())
    return pt


@settings(max_examples=60, deadline=None)
@given(polydiscs())
@example(Polyradius(FieldSpec.padic(5), (), ()))
def test_default_sample_never_repeats_a_point(ambient):
    points = [point_of_spectrum(pt) for pt in default_sample(ambient)]
    assert len(set(points)) == len(points)
    assert points[0] == RigidPoint((Fraction(0),) * ambient.nvars)
