"""Renaming variables changes no homology rank; skipped without hypothesis.

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
from afnd.complexes import derived_tensor, homology  # noqa: E402
from afnd.homotopy import _reduce_fold_map  # noqa: E402
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
