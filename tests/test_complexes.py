"""Chain complexes of affinoid summands: differentials, homology, Koszul."""

from fractions import Fraction

from afnd.affinoid import free_affinoid, quotient, weierstrass_localization
from afnd.complexes import (
    ChainComplex,
    MapComponent,
    Summand,
    derived_tensor,
    homology,
    koszul_complex,
    quotient_resolution,
    resolution_of,
    strict_exactness,
)
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, parse_element

Q5 = FieldSpec.padic(5)


def disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


def two_term(algebra, f):
    """[algebra --(f)--> algebra] in degrees -1 and 0."""
    levels = {
        0: [Summand(algebra, "tgt")],
        -1: [Summand(algebra, "src")],
    }
    comps = {-1: {(0, 0): MapComponent(f, {})}}
    return ChainComplex(Q5, levels, comps)


def test_matrix_and_d_squared():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    assert cx.verify_d_squared(6)
    m = cx.matrix(-1, 4)
    # Multiplication by x is injective on polynomials.
    assert m.source.dim == 5
    columns = [
        [row.get(j, Fraction(0)) for row in m.entries]
        for j in range(m.source.dim)
    ]
    assert all(any(col) for col in columns)


def test_level_bases_are_built_once():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    m = cx.matrix(-1, 4)
    assert cx.level_basis(-1, 4) is m.source
    assert cx.level_basis(0, m.target.truncation) is m.target
    assert all(m.source.index[k] == j for j, k in enumerate(m.source.entries))


def test_homology_multiplication_by_variable():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    h1 = homology(cx, -1, 8)
    assert h1.is_zero
    h0 = homology(cx, 0, 8)
    # Cokernel of x is the constants: rank 1 with witness 1.
    assert h0.rank == 1
    assert str(h0.witnesses[0].parts[0]) == "1"


def test_homology_zero_divisor():
    A = free_affinoid(disc())
    B = quotient(A, [parse_element("x^2", A.ambient)])
    cx = two_term(B, parse_element("x", B.ambient))
    h1 = homology(cx, -1, 8)
    # x * x = 0 in B, so x is a nonzero cycle in degree -1.
    assert not h1.is_zero
    assert h1.rank == 1


def test_koszul_one_variable():
    A = free_affinoid(disc())
    cx = koszul_complex(A, [parse_element("x", A.ambient)])
    assert cx.verify_d_squared(8)
    assert homology(cx, -1, 8).is_zero
    assert homology(cx, 0, 8).rank == 1


def test_koszul_regular_pair():
    A = free_affinoid(disc("x", "y"))
    fs = [parse_element("x", A.ambient), parse_element("y", A.ambient)]
    cx = koszul_complex(A, fs)
    assert cx.verify_d_squared(6)
    assert homology(cx, -1, 6).is_zero
    assert homology(cx, -2, 6).is_zero
    assert homology(cx, 0, 6).rank == 1


def test_strict_exactness_constant():
    A = free_affinoid(disc())
    # [A --(5)--> A]: every degree-0 cycle is a boundary, but preimages
    # cost a factor of 5 in norm.
    cx = two_term(A, parse_element("5", A.ambient))
    w = strict_exactness(cx, 8, [0])
    assert w.exact
    assert w.constant == NormValue.of_rational(5)
    # At an injectivity position with no cycles the constant is one.
    winj = strict_exactness(cx, 8, [-1])
    assert winj.exact
    assert winj.constant == NormValue.one()


def test_resolution_of_localization():
    A = free_affinoid(disc())
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    res = resolution_of(V, A)
    assert res is not None
    assert res.shape_certified
    assert res.validity(8)


def test_quotient_resolution_validity_gate():
    A = free_affinoid(disc())
    good = quotient_resolution(A, [parse_element("x", A.ambient)])
    assert good.validity(8)
    B = quotient(A, [parse_element("x^2", A.ambient)])
    bad = quotient_resolution(B, [parse_element("x", B.ambient)])
    assert not bad.validity(8)


def test_derived_tensor_regular_module():
    A = free_affinoid(disc())
    M = quotient(A, [parse_element("x - 1", A.ambient)])
    res = quotient_resolution(A, [parse_element("x", A.ambient)])
    cx, _ = derived_tensor(M, res)
    # x and x - 1 are coprime: the derived tensor vanishes entirely.
    assert homology(cx, -1, 8).is_zero
    assert homology(cx, 0, 8).rank == 0


def test_derived_tensor_self_intersection():
    A = free_affinoid(disc())
    M = quotient(A, [parse_element("x", A.ambient)])
    res = quotient_resolution(A, [parse_element("x", A.ambient)])
    cx, _ = derived_tensor(M, res)
    # Tor_0 = Tor_1 = k for the fiber against itself.
    assert homology(cx, 0, 8).rank == 1
    assert homology(cx, -1, 8).rank == 1
