"""Renaming variables changes no homology rank, homology of a complex
of vector spaces has the rank linear algebra gives it, and the domain rule
of `ChainComplex.known_injective` agrees with the kernel of the assembled
matrix; skipped without hypothesis.

A piece is a closed interval of log-radii of the unit disk, as in
`test_cech_properties`, over a base whose one variable has a random name.
Naming it T shifts every localization variable by one prime (T', T'', ...)
and so every rename of the self-tensors, and the differentials push
monomials along different renames than they do under the name x.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import (  # noqa: E402
    AffinoidPresentation,
    free_affinoid,
    laurent_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.complexes import (  # noqa: E402
    ChainComplex,
    MapComponent,
    Summand,
    derived_tensor,
    homology,
    koszul_complex,
)
from afnd.homotopy import _reduce_fold_map  # noqa: E402
from afnd.linalg import kernel_basis, sparse_rref  # noqa: E402
from afnd.scalar import FieldSpec, NormValue  # noqa: E402
from afnd.tate import Polyradius, TateElement  # noqa: E402

DEGREE = 6


def interval(base, kind, a, b):
    """|x| <= 5^-a ("disc"), |x| >= 5^-b ("outer"), or both ("annulus")."""
    x = TateElement.variable(base.ambient, base.ambient.names[0])
    if kind == "disc":
        return weierstrass_localization(base, [x], [NormValue.prime_power(5, -a)])
    if kind == "outer":
        return laurent_localization(
            base, g=[x], g_radii=[NormValue.prime_power(5, b)]
        )
    return laurent_localization(
        base,
        f=[x],
        f_radii=[NormValue.prime_power(5, -a)],
        g=[x],
        g_radii=[NormValue.prime_power(5, max(a, b))],
    )


def ranks(cx):
    return {
        n: (cx.level_basis(n, DEGREE).dim, homology(cx, n, DEGREE).rank)
        for n in cx.degrees()
    }


def invariants(name, specs):
    """Ranks of the Koszul resolution of the first piece, of the derived
    tensor of every piece against it, and of its fold map."""
    base = free_affinoid(
        Polyradius(FieldSpec.padic(5), (name,), (NormValue.one(),))
    )
    pieces = [interval(base, *spec) for spec in specs]
    out = [ranks(derived_tensor(base, base, pieces[0])[0])]
    out += [ranks(derived_tensor(m, base, pieces[0])[0]) for m in pieces]
    square, rename = tensor_over(base, pieces[0], pieces[0])
    out.append(_reduce_fold_map(square, pieces[0], rename, DEGREE)[:2])
    return out


specs = st.tuples(
    st.sampled_from(["disc", "outer", "annulus"]),
    st.integers(0, 2),
    st.integers(0, 2),
)


@settings(max_examples=12, deadline=None)
@given(st.lists(specs, min_size=1, max_size=2), st.sampled_from(["T", "T'", "y"]))
def test_renaming_variables_keeps_homology_ranks(family, name):
    assert invariants(name, family) == invariants("x", family)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_homology_of_vector_spaces_is_kernel_modulo_image(data):
    """Q^a -> Q^b -> Q^c over the algebra with no variables, with integer
    matrices and d^0 d^-1 = 0: H^0 has rank dim ker d^0 - rank d^-1, and its
    witness is the first kernel vector outside the image.  The kernel
    vectors are dense, so the obstructions found along the way overlap
    and must be kept Jordan-reduced among themselves."""
    field = FieldSpec.padic(5)
    point = free_affinoid(Polyradius(field, (), ()))
    a, b, c = (data.draw(st.integers(1, top)) for top in (6, 9, 4))
    entries = st.integers(-3, 3)
    d0 = [[data.draw(entries) for _ in range(b)] for _ in range(c)]
    ker = kernel_basis(
        [{j: v for j, v in enumerate(row) if v} for row in d0], b
    )
    # Each column of d^-1 is an integer combination of kernel vectors.
    dm1 = [[0] * a for _ in range(b)]
    for s in range(a):
        for z in ker:
            f = data.draw(entries)
            for j, v in z.items():
                dm1[j][s] += f * v

    def components(matrix):
        return {
            (t, s): MapComponent(TateElement.constant(point.ambient, v))
            for t, row in enumerate(matrix)
            for s, v in enumerate(row)
            if v
        }

    cx = ChainComplex(
        field,
        {n: [Summand(point, (n, i)) for i in range(k)]
         for n, k in ((-1, a), (0, b), (1, c))},
        {-1: components(dm1), 0: components(d0)},
    )
    rep = homology(cx, 0, 1)
    image = [
        {t: dm1[t][s] for t in range(b) if dm1[t][s]} for s in range(a)
    ]
    image_rank = len(sparse_rref(image)[1])
    assert rep.cycle_rank == len(ker)
    assert rep.boundary_rank == image_rank
    assert rep.rank == len(ker) - image_rank
    outside = [
        z for k, z in enumerate(ker)
        if len(sparse_rref(image + ker[: k + 1])[1])
        > len(sparse_rref(image + ker[:k])[1])
    ]
    assert (rep.witness.coords if rep.witness else None) == (
        outside[0] if outside else None
    )


# -- the domain rule against the assembled matrix ----------------------------

Q5 = FieldSpec.padic(5)
RULE_DEGREE = 3
# Nonzero coefficients of 5-adic norm at most 1, so a substitution S - h
# with h drawn from them respects the radius 1 of S.
COEFFS = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-10, 3))


def polynomials(ambient, names):
    """Sums of 1-3 terms of degree <= 2 in `names` over `COEFFS`."""
    exponent = st.lists(
        st.sampled_from(names), max_size=2
    ).map(lambda vs: tuple(vs.count(v) for v in ambient.names))
    return st.dictionaries(
        exponent, st.sampled_from(COEFFS), min_size=1, max_size=3
    ).map(lambda terms: TateElement(ambient, terms))


@st.composite
def exact_levels(draw):
    """A presentation on 1-3 free variables x0.. with exact normal forms:
    0-2 Laurent pairs x_i*T_i = q and an optional substitution S = h."""
    nfree = draw(st.integers(1, 3))
    npairs = draw(st.integers(0, min(2, nfree)))
    sub = draw(st.booleans())
    names = (
        [f"x{i}" for i in range(nfree)]
        + [f"T{i}" for i in range(npairs)]
        + (["S"] if sub else [])
    )
    ambient = Polyradius(Q5, tuple(names), (NormValue.one(),) * len(names))

    def var(name):
        return TateElement.variable(ambient, name)

    relations = [
        var(f"x{i}") * var(f"T{i}")
        - TateElement.constant(ambient, draw(st.sampled_from(COEFFS)))
        for i in range(npairs)
    ]
    if sub:
        relations.append(var("S") - draw(polynomials(ambient, names[:-1])))
    level = AffinoidPresentation(ambient, relations)
    assert not level.generic_relations and not level.is_zero_algebra
    assert len(level.laurent_pairs) == npairs and len(level.substitutions) == sub
    return level


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_injectivity_rule_agrees_with_the_assembled_kernel(data):
    """Wherever the rule says d^n is injective, the matrix of d^n has no
    kernel at the truncation degree; a relator may be any element, one of
    the level's relations times a monomial included."""
    level = data.draw(exact_levels())
    ambient = level.ambient
    in_ideal = st.tuples(
        st.sampled_from(level.relations or (TateElement.zero(ambient),)),
        polynomials(ambient, ambient.names),
    ).map(lambda pair: pair[0] * pair[1])
    relators = data.draw(st.lists(
        st.one_of(polynomials(ambient, ambient.names), in_ideal),
        min_size=1, max_size=2,
    ))
    cx = koszul_complex(level, relators)
    certified = [n for n in cx.degrees() if cx.known_injective(n)]
    for n in certified:
        m = cx.matrix(n, RULE_DEGREE)
        assert kernel_basis(m.entries, m.source.dim) == [], (n, relators)
    bottom = -len(relators)
    assert (bottom in certified) == any(
        not level.shape_normal(f).is_zero for f in relators
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_injectivity_rule_skips_a_level_relation(data):
    """A relator that is one of the level's own relations has shape normal
    form 0: the rule does not fire and the kernel is the whole level."""
    level = data.draw(exact_levels().filter(lambda lv: lv.relations))
    f = data.draw(st.sampled_from(level.relations))
    assert level.shape_normal(f).is_zero
    cx = koszul_complex(level, [f])
    assert not cx.known_injective(-1)
    m = cx.matrix(-1, RULE_DEGREE)
    dim = cx.level_basis(-1, RULE_DEGREE).dim
    assert len(kernel_basis(m.entries, dim)) == dim
    assert homology(cx, -1, RULE_DEGREE).rank == dim


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_injectivity_rule_never_fires_on_a_generic_level(data):
    """Adding a relation that only the generic layer reduces, c*x0^2 -
    5*x0^3, makes the level's normal forms degree-bounded: the rule never
    fires, whatever the relators."""
    exact = data.draw(exact_levels())
    ambient = exact.ambient
    x0 = TateElement.variable(ambient, "x0")
    c = data.draw(st.sampled_from(COEFFS))
    level = AffinoidPresentation(
        ambient, exact.relations + ((x0 ** 2).scale(c) - (x0 ** 3).scale(5),)
    )
    assert level.generic_relations
    relators = data.draw(st.lists(
        polynomials(ambient, ambient.names), min_size=1, max_size=2
    ))
    cx = koszul_complex(level, relators)
    assert not any(cx.known_injective(n) for n in cx.degrees())
