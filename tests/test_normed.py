"""Weighted orthogonal spaces: norms, tensors, strictness of sparse maps."""

from fractions import Fraction

import pytest

from afnd.normed import WeightedSpace, classify, tensor_spaces
from afnd.scalar import FieldSpec, NormValue

Q5 = FieldSpec.padic(5)
ONE = NormValue.one()


def line(r):
    return WeightedSpace.line(Q5, NormValue.of_rational(r))


def test_space_norm():
    s = WeightedSpace(Q5, (NormValue.one(), NormValue.of_rational(5)))
    assert s.norm([Fraction(5), Fraction(0)]) == NormValue.prime_power(5, -1)
    assert s.norm([1, 1]) == NormValue.of_rational(5)
    with pytest.raises(ValueError):
        s.norm([1])


def test_one_dimensional_tensor():
    # k_2 (x) k_3 = k_6, and k_r (x) k_1 = k_r.
    assert tensor_spaces(line(2), line(3)) == line(6)
    for r in (2, 3, 7):
        assert tensor_spaces(line(r), line(1)) == line(r)


def test_classify_mult_by_p():
    c = classify(Q5, [{0: Fraction(5)}], [ONE], [ONE])
    assert c.mono and c.epi and c.strict
    assert c.strict_mono_constant == NormValue.of_rational(5)
    assert c.strict_epi_constant == NormValue.of_rational(5)


def test_classify_zero_map():
    c = classify(Q5, [{}], [ONE], [ONE])
    assert not c.mono and not c.epi
    assert c.strict_mono_constant is None
    assert c.strict_epi_constant is None


def test_classify_projection():
    c = classify(Q5, [{0: Fraction(1)}], [ONE], [ONE, NormValue.of_rational(2)])
    assert c.epi and not c.mono
    assert c.strict_epi_constant == NormValue.one()
