"""Renaming variables changes no homology rank, and homology of a complex
of vector spaces has the rank linear algebra gives it; skipped without
hypothesis.

A piece is a closed interval of log-radii of the unit disk, as in
`test_cech_properties`, over a base whose one variable has a random name.
Naming it T shifts every localization variable by one prime (T', T'', ...)
and so every rename of the self-tensors, and the differentials push
monomials along different renames than they do under the name x.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.affinoid import (  # noqa: E402
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
