"""Property tests of the NormValue order; skipped without hypothesis."""

from fractions import Fraction
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from afnd.scalar import NormValue  # noqa: E402

exponents = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_values = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11]), exponents, max_size=5
).map(lambda exps: NormValue({p: e for p, e in exps.items() if e}))
values = st.one_of(st.just(NormValue.zero()), nonzero_values)


@given(values, values)
def test_order_is_antisymmetric(a, b):
    assert a.compare(b) == -b.compare(a)
    assert (a.compare(b) == 0) == (a == b)
    assert (a < b) == (b > a)


@given(values, values, values)
def test_order_is_transitive(a, b, c):
    for x, y, z in permutations((a, b, c)):
        if x <= y and y <= z:
            assert x <= z
        if x < y and y <= z:
            assert x < z


@given(values, values, nonzero_values)
def test_order_is_compatible_with_products(a, b, c):
    if a < b:
        assert a * c < b * c
        assert a * c.inverse() < b * c.inverse()


@given(nonzero_values, st.fractions(min_value=Fraction(1, 6), max_value=6,
                                    max_denominator=6))
def test_positive_powers_preserve_the_order_against_one(a, k):
    assert (a ** k).compare(NormValue.one()) == a.compare(NormValue.one())
