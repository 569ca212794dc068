"""Weighted orthogonal spaces: the norm of a vector and of a tensor."""

from fractions import Fraction

from afnd.affinoid import free_affinoid, tensor_over
from afnd.complexes import CycleWitness, LevelBasis
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius
from helpers import of_rational

Q5 = FieldSpec.padic(5)


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
