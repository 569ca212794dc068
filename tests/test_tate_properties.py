"""Property tests of Tate elements; skipped without hypothesis.

Gauss norms are multiplicative on polydiscs of factored radius, for the
Gauss norm and for the Gauss-point seminorms inside it.  Coefficients are
exact and canonical: every result of arithmetic, of a pair-relation product
and of a normal form holds an `int` where its coefficient is integral and a
`Fraction` of denominator > 1 elsewhere, and equals the same computation
done on plain `Fraction` dicts.
"""

from fractions import Fraction
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import free_affinoid, quotient  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import (  # noqa: E402
    PairRelations,
    Polyradius,
    TateElement,
    parse_element,
)

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


# -- exact coefficients ------------------------------------------------------

UNIT = NormValue.one()
AMBIENTS = {
    n: Polyradius(Q5, ("x", "y", "z")[:n], (UNIT,) * n) for n in (1, 2, 3)
}
scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


def elements_of(ambient, degree=3, size=4):
    exponents = st.tuples(*[st.integers(0, degree)] * ambient.nvars)
    return st.dictionaries(exponents, scalars, max_size=size).map(
        lambda terms: TateElement(ambient, terms)
    )


def ref(element):
    """The element as a plain dict of Fraction coefficients."""
    return {e: Fraction(c) for e, c in element.terms.items()}


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_substitute(f, i, h):
    """f with variable i replaced by h."""
    out = {}
    for e, c in f.items():
        term = {e[:i] + (0,) + e[i + 1:]: c}
        for _ in range(e[i]):
            term = ref_mul(term, h)
        out = ref_add(out, term)
    return out


def ref_pairs(f, pairs):
    """f with each relation x_u * x_v = q of `pairs` applied to every term."""
    out = {}
    for e, c in f.items():
        e = list(e)
        for u, v, q in pairs:
            m = min(e[u], e[v])
            e[u] -= m
            e[v] -= m
            c *= Fraction(q) ** m
        out = ref_add(out, {tuple(e): c})
    return out


def assert_exact(element, expected):
    """Canonical coefficients, equal to the Fraction-dict reference."""
    for c in element.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert element.terms == expected


@st.composite
def element_pairs(draw):
    ambient = AMBIENTS[draw(st.integers(1, 2))]
    return ambient, draw(elements_of(ambient)), draw(elements_of(ambient))


@settings(max_examples=80, deadline=None)
@given(element_pairs(), scalars)
def test_arithmetic_keeps_coefficients_exact_and_canonical(case, c):
    ambient, f, g = case
    rf, rg = ref(f), ref(g)
    assert_exact(f, rf)
    assert_exact(f + g, ref_add(rf, rg))
    assert_exact(f - g, ref_add(rf, rg, -1))
    assert_exact(-f, ref_add({}, rf, -1))
    assert_exact(f * g, ref_mul(rf, rg))
    assert_exact(f.scale(c), ref_clean({e: c * v for e, v in rf.items()}))
    assert_exact(f.substitute("x", g), ref_substitute(rf, 0, rg))
    # Into the ambient with one more variable, x renamed to that one.
    bigger = AMBIENTS[ambient.nvars + 1]
    moved = {(0,) + e[1:] + e[:1]: v for e, v in rf.items()}
    assert_exact(f.in_ambient(bigger, {"x": bigger.names[-1]}), moved)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_pair_relation_products_are_exact(data, nvars):
    ambient = AMBIENTS[nvars]
    f, g = data.draw(elements_of(ambient)), data.draw(elements_of(ambient))
    pairs = {}
    if nvars > 1 and data.draw(st.booleans()):
        pairs[("x", "y")] = data.draw(scalars.filter(bool))
    relations = PairRelations(ambient, pairs)
    idx = [(ambient.index(u), ambient.index(v), q) for (u, v), q in pairs.items()]
    assert_exact(f.mul_cancel(g, relations), ref_pairs(ref_mul(ref(f), ref(g)), idx))
    for _, factor in relations.known.values():
        assert factor is None or type(factor) is int or factor.denominator > 1


BIDISC = AMBIENTS[2]
# Each presentation with the one layer that holds its relation and the
# reference of `shape_normal` on Fraction dicts.
LAYERS = ("substitutions", "laurent_pairs", "generic_relations")
EXACT_PRESENTATIONS = [
    ("2*x*y - 3", "laurent_pairs", lambda w: ref_pairs(w, [(0, 1, Fraction(3, 2))])),
    ("4*x*y - 6", "laurent_pairs", lambda w: ref_pairs(w, [(0, 1, Fraction(3, 2))])),
    ("x*y - 5", "laurent_pairs", lambda w: ref_pairs(w, [(0, 1, 5)])),
    ("y - 5*x^2", "substitutions", lambda w: ref_substitute(w, 1, {(2, 0): Fraction(5)})),
    (
        "2*y - 10*x + 1/3",
        "substitutions",
        lambda w: ref_substitute(w, 1, {(1, 0): Fraction(5), (0, 0): Fraction(-1, 6)}),
    ),
]
GENERIC = quotient(free_affinoid(BIDISC), [parse_element("3*x^2 - 10*y", BIDISC)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXACT_PRESENTATIONS), elements_of(BIDISC))
def test_exact_layer_normal_forms_are_exact(case, w):
    text, layer, reference = case
    pres = quotient(free_affinoid(BIDISC), [parse_element(text, BIDISC)])
    assert [name for name in LAYERS if getattr(pres, name)] == [layer]
    expected = reference(ref(w))
    assert_exact(pres.shape_normal(w), expected)
    degree = max((sum(e) for e in expected), default=0)
    assert_exact(pres.normal_form(w, degree), expected)


@settings(max_examples=40, deadline=None)
@given(elements_of(BIDISC))
def test_generic_normal_forms_have_canonical_coefficients(w):
    assert GENERIC.generic_relations
    nf = GENERIC.normal_form(w, 6)
    assert_exact(nf, ref(nf))
    # Reducing the Fraction copy of w gives the same normal form.
    copy = TateElement(BIDISC, {e: Fraction(c) for e, c in w.terms.items()})
    assert GENERIC.normal_form(copy, 6).terms == nf.terms


def test_pair_relation_quotient_is_exact():
    pres = free_affinoid(BIDISC)
    q = pres._pair_relation(parse_element("2*x*y - 3", BIDISC))[2]
    assert type(q) is Fraction and q == Fraction(3, 2)
    q = pres._pair_relation(parse_element("2*x*y - 4", BIDISC))[2]
    assert type(q) is int and q == 2
