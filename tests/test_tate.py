"""Tate algebra elements: arithmetic, Gauss norms, evaluation, parsing."""

from fractions import Fraction

import pytest

from afnd.affinoid import free_affinoid, tensor_over
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import (
    ElementSyntaxError,
    Polyradius,
    TateElement,
    fresh_name,
    parse_element,
)
from helpers import of_rational

Q5 = FieldSpec.padic(5)


def disc(*spec):
    names = tuple(s[0] for s in spec)
    radii = tuple(s[1] for s in spec)
    return Polyradius(Q5, names, radii)


UNIT = disc(("x", NormValue.one()))
BIG = disc(("x", of_rational(5)))


def test_polyradius_validation():
    with pytest.raises(ValueError):
        disc(("x", NormValue.one()), ("x", NormValue.one()))
    with pytest.raises(ValueError):
        disc(("x", NormValue.zero()))


def test_float_coefficients_are_rejected():
    # A float is binary, not the rational it prints as: 0.1 would enter as
    # 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="inexact coefficient"):
        TateElement(UNIT, {(1,): 0.1})
    with pytest.raises(TypeError, match="inexact coefficient"):
        TateElement.constant(UNIT, 0.5)
    exact = TateElement(UNIT, {(1,): Fraction(1, 10), (0,): Fraction(4, 2)})
    assert exact.terms == {(1,): Fraction(1, 10), (0,): 2}
    assert type(exact.terms[(0,)]) is int
    assert TateElement.constant(UNIT, 3).terms == {(0,): 3}


def test_gauss_norm():
    assert TateElement.zero(UNIT).gauss_norm().is_zero
    f = parse_element("5 + x", UNIT)
    assert f.gauss_norm() == NormValue.one()
    g = parse_element("5*x^2", BIG)
    assert g.gauss_norm() == of_rational(5)


def test_arithmetic_and_multiplicativity():
    r2 = disc(("x", of_rational(2)))
    x = TateElement.variable(r2, "x")
    assert (x * x).gauss_norm() == of_rational(4)
    f = parse_element("1 + 5*x", UNIT)
    one = TateElement.constant(UNIT, 1)
    assert f * one == f
    assert f - f == TateElement.zero(UNIT)


def test_evaluate_and_substitute():
    f = parse_element("x^2 + 5", UNIT)
    assert f.evaluate([Fraction(2)]) == 9
    g = f.substitute("x", parse_element("x + 1", UNIT))
    assert g == parse_element("x^2 + 2*x + 6", UNIT)


def test_recenter():
    f = parse_element("x^2", UNIT)
    g = f.recenter([Fraction(1)])
    # f(x + 1) = x^2 + 2x + 1
    assert g == parse_element("x^2 + 2*x + 1", UNIT)


def test_gauss_seminorm_smaller_radius():
    f = parse_element("x^2 + 5*x", UNIT)
    rho = NormValue.prime_power(5, -1)
    # at |x| = 5^-1: max(5^-2, 5^-1 * 5^-1) = 5^-2
    assert f.gauss_seminorm([rho]) == NormValue.prime_power(5, -2)


def test_parse_errors_and_printing():
    with pytest.raises(ElementSyntaxError):
        parse_element("x +", UNIT)
    with pytest.raises(ElementSyntaxError):
        parse_element("y", UNIT)
    assert str(parse_element("x*6", UNIT)) == "6*x"
    assert str(parse_element("5 + x^2", UNIT)) == "5 + x^2"
    assert str(TateElement.zero(UNIT)) == "0"


def test_in_ambient_and_tensor_free():
    other = disc(("x", NormValue.one()), ("y", NormValue.one()))
    f = parse_element("x + 1", UNIT)
    g = f.in_ambient(other)
    assert g.ambient is other
    # The tensor of two free algebras over a point joins their variables.
    point = free_affinoid(disc())
    joint, rename = tensor_over(point, free_affinoid(UNIT), free_affinoid(UNIT))
    assert joint.ambient.nvars == 2
    assert rename == {"x": "x'"}


def test_fresh_name():
    assert fresh_name("T", ["x"]) == "T"
    assert fresh_name("T", ["T", "T'"]) == "T''"
