"""Property tests of the NormValue order and of exact scalar division;
skipped without hypothesis."""

from fractions import Fraction
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from afnd.scalar import NormValue, as_entry, exact_div  # noqa: E402
from helpers import of_rational  # noqa: E402

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


def validated_product(a, b):
    """a * b through the validating constructor."""
    if a.is_zero or b.is_zero:
        return NormValue.zero()
    exps = a.exponents
    for p, e in b.exponents.items():
        exps[p] = exps.get(p, 0) + e
    return NormValue(exps)


@given(values, values, values)
def test_products_and_inverses_match_validated_values(a, b, c):
    """Products and inverses skip the constructor's checks, and must store
    what it stores: sorted primes with nonzero exponents, each an int
    exactly when it is integral and a Fraction otherwise."""
    assert a * NormValue.one() is a
    cases = [(a * b, validated_product(a, b))]
    if not a.is_zero:
        inverse = NormValue({p: -e for p, e in a.exponents.items()})
        cases += [
            (a.inverse(), inverse),
            (b / a, validated_product(b, inverse)),
            (a * a.inverse(), NormValue.one()),
        ]
    for got, want in cases:
        assert got._exps == want._exps
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want)
        assert got.compare(c) == want.compare(c)
        if got._exps is not None:
            assert [p for p, _ in got._exps] == sorted(p for p, _ in got._exps)
            assert all(
                e and type(e) is (int if e.denominator == 1 else Fraction)
                for _, e in got._exps
            )


def test_integral_exponents_print_as_before():
    """The int form of an integral exponent changes no printed value,
    whether the value comes from the constructor or from a product."""
    cases = [
        (NormValue({5: -2}), NormValue({5: -1}) * NormValue({5: -1}), "5^-2"),
        (NormValue({2: 1, 5: 2}),
         NormValue({5: Fraction(3, 2)}) * NormValue({2: 1, 5: Fraction(1, 2)}),
         "2*5^2"),
        (NormValue({5: Fraction(1, 2)}),
         NormValue({5: Fraction(3, 2)}) * NormValue({5: -1}), "5^1/2"),
        (NormValue({2: Fraction(-1, 3), 5: 1}),
         NormValue({2: Fraction(2, 3), 5: 1}) / NormValue({2: 1}),
         "2^-1/3*5"),
    ]
    for built, product, text in cases:
        for value in (built, product, NormValue.parse(text)):
            assert str(value) == text
            assert value == built and hash(value) == hash(built)
    assert type(NormValue({5: Fraction(4, 2)}).exponents[5]) is int
    assert type(of_rational(Fraction(1, 25)).exponents[5]) is int


@given(nonzero_values, st.fractions(min_value=Fraction(1, 6), max_value=6,
                                    max_denominator=6))
def test_positive_powers_preserve_the_order_against_one(a, k):
    assert (a ** k).compare(NormValue.one()) == a.compare(NormValue.one())


@given(st.integers(-60, 60), st.integers(-12, 12).filter(bool))
def test_exact_div_is_an_int_exactly_when_the_quotient_is(a, b):
    q = exact_div(a, b)
    assert q == Fraction(a, b)
    assert type(q) is (int if a % b == 0 else Fraction)
    assert type(exact_div(Fraction(a), Fraction(b))) is type(q)
    assert type(exact_div(a, Fraction(b))) is type(q)


@given(st.fractions(min_value=-60, max_value=60, max_denominator=12))
def test_as_entry_is_an_int_exactly_when_the_value_is_integral(c):
    entry = as_entry(c)
    assert entry == c
    assert type(entry) is (int if c.denominator == 1 else Fraction)
    assert as_entry(entry) is entry
