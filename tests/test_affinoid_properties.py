"""Property tests of generic normal forms, shape bases and localization
chains; skipped without hypothesis."""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import (  # noqa: E402
    AffinoidPresentation,
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    localization_path,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import (  # noqa: E402
    Polyradius, TateElement, grevlex_key, parse_element
)
from helpers import of_rational  # noqa: E402

DEGREE = 6
BIDISC = Polyradius(
    FieldSpec.padic(5), ("x", "y"), (NormValue.one(), of_rational(2))
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
    assert pres.generic_relations
    nf = pres.normal_form(w, DEGREE)
    assert pres.normal_form(nf, DEGREE) == nf
    assert pres.normal_form(w - nf, DEGREE).is_zero
    # The normal form lives on the basis, off every pivot monomial.
    assert set(nf.terms) <= set(pres.monomial_basis(DEGREE))


# -- shape bases -------------------------------------------------------------


@st.composite
def shape_presentations(draw):
    """1-4 variables of radius 1, 0-2 disjoint Laurent pairs u*v = q and
    at most one more variable substituted by a constant."""
    n = draw(st.integers(1, 4))
    ambient = Polyradius(
        FieldSpec.padic(5), tuple(f"x{i}" for i in range(n)),
        (NormValue.one(),) * n,
    )
    x = [TateElement.variable(ambient, name) for name in ambient.names]
    order = draw(st.permutations(range(n)))
    npairs = draw(st.integers(0, n // 2))
    relations = [
        x[order[2 * k]] * x[order[2 * k + 1]]
        - TateElement.constant(ambient, draw(st.sampled_from([1, 3, 5])))
        for k in range(npairs)
    ]
    substituted = draw(st.sampled_from([None, *order[2 * npairs:]]))
    if substituted is not None:
        relations.append(x[substituted] - TateElement.constant(ambient, 5))
    pres = AffinoidPresentation(ambient, relations)
    assert len(pres.laurent_pairs) == npairs
    assert len(pres.substitutions) == (substituted is not None)
    return pres


def brute_shape_basis(pres, degree):
    """Every monomial of degree <= D in the free variables that no Laurent
    pair rewrites, sorted grevlex."""
    amb = pres.ambient
    free = pres.free_variable_indices()
    pairs = [(amb.index(u), amb.index(v)) for u, v in pres.laurent_pairs]
    out = []
    for ks in itertools.product(range(degree + 1), repeat=len(free)):
        e = [0] * amb.nvars
        for i, k in zip(free, ks):
            e[i] = k
        if sum(e) <= degree and all(e[u] == 0 or e[v] == 0 for u, v in pairs):
            out.append(tuple(e))
    return sorted(out, key=grevlex_key)


@settings(max_examples=80, deadline=None)
@given(
    shape_presentations(), st.lists(st.integers(0, 7), min_size=1, max_size=4)
)
def test_shape_bases_come_out_in_grevlex_order(pres, degrees):
    """Layers built without sorting, in whatever order the degrees are
    asked for, give the brute-force grevlex basis, each basis a prefix of
    the next, and a column map that agrees with every basis."""
    bases = {}
    for degree in degrees:
        basis, col_of = pres._shape_basis(degree)
        assert basis == brute_shape_basis(pres, degree)
        bases[degree] = basis
    top = max(degrees)
    for degree, basis in bases.items():
        assert bases[top][: len(basis)] == basis
        assert all(col_of[e] == j for j, e in enumerate(basis))
        assert {e for e in col_of if sum(e) <= degree} == set(basis)


# -- self-tensors of quotients ----------------------------------------------

SMALL_COEFFS = [1, -1, 2, 3, 5, Fraction(1, 5), Fraction(-2, 3)]
SMALL_RADII = [NormValue.one(), NormValue.prime_power(5, -1),
               NormValue.prime_power(5, 1), of_rational(2)]


def small_element(data, ambient):
    """At most three terms of degree <= 2 in each variable."""
    exponent = st.tuples(*[st.integers(0, 2)] * ambient.nvars)
    terms = data.draw(
        st.dictionaries(exponent, st.sampled_from(SMALL_COEFFS), max_size=3)
    )
    return TateElement(ambient, terms)


def small_relation(data, ambient):
    """A relation shaped for the substitution layer (x_i - f), the Laurent
    layer (x_i * x_j - q) or neither."""
    kind = data.draw(st.sampled_from(["substitution", "pair", "any"]))
    n = ambient.nvars
    if kind == "substitution":
        i = data.draw(st.integers(0, n - 1))
        return TateElement.variable(ambient, ambient.names[i]) - small_element(
            data, ambient
        )
    if kind == "pair" and n >= 2:
        i, j = data.draw(st.permutations(range(n)))[:2]
        q = data.draw(st.sampled_from(SMALL_COEFFS))
        return (
            TateElement.variable(ambient, ambient.names[i])
            * TateElement.variable(ambient, ambient.names[j])
            - TateElement.constant(ambient, q)
        )
    return small_element(data, ambient)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_self_tensor_of_a_quotient_is_the_quotient(data, n):
    """M (x)_B M for a quotient M of B adds no variable and repeats M's
    extra relations, so it has M's normal forms: `is_epimorphism` uses M
    itself as that square."""
    ambient = Polyradius(
        FieldSpec.padic(5), tuple(f"x{i}" for i in range(n)),
        tuple(data.draw(st.sampled_from(SMALL_RADII)) for _ in range(n)),
    )
    B = quotient(free_affinoid(ambient), [
        small_relation(data, ambient)
        for _ in range(data.draw(st.integers(0, 1)))
    ])
    M = quotient(B, [
        small_relation(data, ambient)
        for _ in range(data.draw(st.integers(1, 2)))
    ])
    square, rename = tensor_over(B, M, M)
    assert square.ambient == M.ambient and rename == {}
    assert square.is_zero_algebra == M.is_zero_algebra
    assert square.substitutions == M.substitutions
    assert square.laurent_pairs == M.laurent_pairs
    assert square.generic_relations == M.generic_relations
    assert square.monomial_basis(4) == M.monomial_basis(4)


# -- localization chains ---------------------------------------------------

DISC = Polyradius(FieldSpec.padic(5), ("x",), (NormValue.one(),))
COEFFS = [Fraction(1), Fraction(-1), Fraction(3), Fraction(5), Fraction(1, 5)]
RADII = st.integers(-2, 2).map(lambda k: NormValue.prime_power(5, k))


def draw_element(data, ambient):
    """At most three terms, of degree <= 2 in each variable of `ambient`,
    the localization variables of earlier steps included."""
    exponent = st.tuples(*[st.integers(0, 2)] * ambient.nvars)
    terms = data.draw(
        st.dictionaries(exponent, st.sampled_from(COEFFS), max_size=3)
    )
    return TateElement(ambient, terms)


def draw_step(data, node):
    """One Weierstrass, Laurent (with both f and g) or rational
    localization of `node`."""
    kind = data.draw(st.sampled_from(["weierstrass", "laurent", "rational"]))
    f = [draw_element(data, node.ambient)
         for _ in range(data.draw(st.integers(1, 2)))]
    r = [data.draw(RADII) for _ in f]
    if kind == "weierstrass":
        return weierstrass_localization(node, f, r)
    if kind == "laurent":
        g = [draw_element(data, node.ambient)
             for _ in range(data.draw(st.integers(1, 2)))]
        return laurent_localization(node, f, r, g, [data.draw(RADII) for _ in g])
    # g = (1 - sum a_i f_i) / b, so that b*g + sum a_i f_i = 1.
    a = [draw_element(data, node.ambient) for _ in f]
    b = data.draw(st.sampled_from(COEFFS))
    rest = TateElement.constant(node.ambient, 1)
    for ai, fi in zip(a, f):
        rest = rest - ai * fi
    certificate = BezoutCertificate(
        TateElement.constant(node.ambient, b), tuple(a)
    )
    return rational_localization(
        node, f, rest.scale(1 / b), r, certificate=certificate
    )


def trusted_shape(rel, var, fresh):
    """Whether `rel` is T - f or g*S - 1 in the variable `var` (T or S),
    with f or g free of every name in `fresh`."""
    ambient = rel.ambient
    f = TateElement.variable(ambient, var) - rel
    if not any(f.uses(name) for name in fresh):
        return True
    i = ambient.index(var)
    gs = rel + TateElement.constant(ambient, 1)
    if any(e[i] != 1 for e in gs.terms):
        return False
    g = TateElement(
        ambient,
        {e[:i] + (0,) + e[i + 1:]: c for e, c in gs.terms.items()},
    )
    return not any(g.uses(name) for name in fresh)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_localization_chains_have_trusted_relator_shapes(data, length):
    """`homotopy._resolution_gate` trusts a localization chain as its own
    resolution; this is the shape of its relators that the trust rests
    on."""
    base = free_affinoid(DISC)
    V = base
    for _ in range(length):
        V = draw_step(data, V)
    assert V.is_over(base)
    path = localization_path(V, base)
    assert path is not None and path[-1] is base
    for node, prev in zip(path, path[1:]):
        assert node.localization.base is prev
        assert node.is_over(prev)
        fresh = node.ambient.names[prev.ambient.nvars:]
        relators = node.relations[len(prev.relations):]
        assert fresh and len(relators) == len(fresh)
        for rel, var in zip(relators, fresh):
            assert trusted_shape(rel, var, fresh), (rel, var)
