"""Weighted orthogonal spaces: norms, tensors, strictness of sparse maps."""

from fractions import Fraction

from afnd.affinoid import free_affinoid, tensor_over
from afnd.complexes import CycleWitness, LevelBasis
from afnd.normed import classify
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius
from helpers import of_rational

Q5 = FieldSpec.padic(5)
ONE = NormValue.one()


def tensor_weight(r1, r2):
    """The weight of k_r1 (x) k_r2: the norm of x (x) x' in the tensor of
    the one-variable free algebras of radii r1 and r2 over a point."""
    point = free_affinoid(Polyradius(Q5, (), ()))

    def line(r):
        return free_affinoid(Polyradius(Q5, ("x",), (of_rational(r),)))

    square, _ = tensor_over(point, line(r1), line(r2))
    return square.ambient.monomial_weight((1, 1))


def test_space_norm():
    # The norm of a witness is max_i |c_i| w_i over its coordinates, with
    # the monomial weights 1 and 5 of the basis 1, x at radius 5.
    ambient = Polyradius(Q5, ("x",), (of_rational(5),))
    entries = [(0, (0,)), (0, (1,))]
    basis = LevelBasis(entries, 1, {e: j for j, e in enumerate(entries)}, [ambient])

    def norm(coords):
        return CycleWitness(0, basis.parts(coords), coords, basis, Q5).norm

    assert norm({0: Fraction(5)}) == NormValue.prime_power(5, -1)
    assert norm({0: Fraction(1), 1: Fraction(1)}) == of_rational(5)
    assert norm({}).is_zero


def test_one_dimensional_tensor():
    # k_2 (x) k_3 = k_6, and k_r (x) k_1 = k_r.
    assert tensor_weight(2, 3) == of_rational(6)
    for r in (2, 3, 7):
        assert tensor_weight(r, 1) == of_rational(r)


def test_classify_mult_by_p():
    c = classify(Q5, [{0: Fraction(5)}], [ONE], [ONE])
    assert c.mono and c.epi and c.strict
    assert c.strict_mono_constant == of_rational(5)
    assert c.strict_epi_constant == of_rational(5)


def test_classify_zero_map():
    c = classify(Q5, [{}], [ONE], [ONE])
    assert not c.mono and not c.epi
    assert c.strict_mono_constant is None
    assert c.strict_epi_constant is None


def test_classify_projection():
    c = classify(Q5, [{0: Fraction(1)}], [ONE], [ONE, of_rational(2)])
    assert c.epi and not c.mono
    assert c.strict_epi_constant == NormValue.one()
