"""Field norms and the exact factored norm-value domain."""

import math
import pathlib
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import afnd
from afnd.scalar import (
    FieldSpec,
    NormValue,
    _is_prime,
    max_norm,
    padic_valuation,
    scalar_norm,
)
from helpers import of_rational

Q5 = FieldSpec.padic(5)
TRIV = FieldSpec.trivial()


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec.padic(4)
    with pytest.raises(ValueError):
        FieldSpec("p-adic", None)
    assert str(Q5) == "Q_5"


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(1, 10**4) if _is_prime(n) != trial(n)] == []
    assert _is_prime(2**61 - 1)
    assert _is_prime(10**18 + 3)
    # A strong pseudoprime to the bases 2, 3, 5 and 7.
    assert not _is_prime(3215031751)
    # Above the bound where the bases are proven, nothing is certified.
    with pytest.raises(ValueError, match="too large"):
        FieldSpec.padic(10**24 + 7)


def test_padic_valuation():
    assert padic_valuation(Fraction(50), 5) == 2
    assert padic_valuation(Fraction(1, 25), 5) == -2
    assert padic_valuation(Fraction(7), 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(Fraction(0), 5)


def test_scalar_norm_basics():
    assert scalar_norm(TRIV, 7) == NormValue.one()
    assert scalar_norm(Q5, 0) == NormValue.zero()
    assert scalar_norm(Q5, 50) == of_rational(Fraction(1, 25))
    assert scalar_norm(Q5, Fraction(3, 5)) == NormValue.prime_power(5, 1)


def test_norm_value_arithmetic():
    a = NormValue.prime_power(5, Fraction(-1, 2))
    b = NormValue.prime_power(5, Fraction(1, 2))
    assert a * b == NormValue.one()
    assert a.inverse() == b
    assert (a ** 4) == NormValue.prime_power(5, -2)
    z = NormValue.zero()
    assert (z * a).is_zero
    with pytest.raises(ZeroDivisionError):
        z.inverse()


def test_float_norm_values_are_rejected():
    with pytest.raises(TypeError, match="inexact exponent"):
        NormValue({5: 0.1})
    with pytest.raises(TypeError, match="inexact exponent"):
        NormValue.prime_power(5, 0.5)
    with pytest.raises(TypeError, match="inexact value"):
        of_rational(0.5)
    assert NormValue({5: Fraction(1, 10)}) == NormValue.prime_power(
        5, Fraction(1, 10)
    )
    assert str(NormValue({5: 1, 2: Fraction(-1, 2)})) == str(
        of_rational(5) * NormValue.prime_power(2, Fraction(-1, 2))
    )
    assert of_rational(Fraction(1, 2)) == NormValue.prime_power(2, -1)


def test_norm_value_ordering_same_prime():
    vals = [NormValue.prime_power(5, Fraction(k, 2)) for k in range(-4, 5)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo < hi
    assert NormValue.zero() < vals[0]


def test_norm_value_ordering_mixed_primes():
    # 2^(3/2) = 2.828... vs 3: mixed signs, compared as 2^3 vs 3^2.
    a = NormValue.prime_power(2, Fraction(3, 2))
    b = NormValue.prime_power(3, 1)
    assert a < b
    # 8 vs 2*3 = 6 going the other way.
    assert NormValue.prime_power(2, 3) > of_rational(6)


def _decimal_log(exps):
    """sum e_p * ln(p) to 120 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 120
        return sum(
            (Decimal(e.numerator) / e.denominator * Decimal(p).ln()
             for p, e in exps.items()),
            Decimal(0),
        )


# 2^282 * 3^274 and 5^57 * 7^208 differ by about 7.2e-10 in the log, and
# their cube roots by a third of that: too close for the float oracle.
NEAR_TIES = [
    ({2: Fraction(282), 3: Fraction(274)}, {5: Fraction(57), 7: Fraction(208)}),
    (
        {2: Fraction(94), 3: Fraction(274, 3)},
        {5: Fraction(19), 7: Fraction(208, 3)},
    ),
]


def test_norm_value_float_log_oracle():
    """Orderings agree with floating-point logarithms on a random corpus.

    Pairs whose logs are too close for floats are decided by a 120-digit
    decimal logarithm instead.
    """
    rng = random.Random(7)
    primes = [2, 3, 5, 7]
    corpus = []
    for _ in range(300):
        exps_a = {p: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for p in primes}
        exps_b = {p: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for p in primes}
        corpus.append((exps_a, exps_b))
    corpus += NEAR_TIES + [(b, a) for a, b in NEAR_TIES]
    decided_by_decimal = 0
    for exps_a, exps_b in corpus:
        a = NormValue({p: e for p, e in exps_a.items() if e})
        b = NormValue({p: e for p, e in exps_b.items() if e})
        if a == b:
            assert a.compare(b) == 0
            continue
        la = sum(float(e) * math.log(p) for p, e in exps_a.items())
        lb = sum(float(e) * math.log(p) for p, e in exps_b.items())
        if abs(la - lb) >= 1e-9:
            assert (a < b) == (la < lb)
            continue
        da, db = _decimal_log(exps_a), _decimal_log(exps_b)
        assert abs(da - db) > Decimal("1e-100")
        assert (a < b) == (da < db)
        assert (a > b) == (da > db)
        decided_by_decimal += 1
    assert decided_by_decimal >= 2 * len(NEAR_TIES)


def test_norm_value_str_roundtrip():
    for text in ["0", "1", "5", "5^-2", "5^-1/2", "2^3*5^-2"]:
        assert str(NormValue.parse(text)) == text


def test_max_norm():
    vals = [NormValue.prime_power(5, -k) for k in range(3)]
    assert max_norm(vals) == NormValue.one()
    assert max_norm([]) == NormValue.zero()


def test_cli_import_does_not_load_mpmath():
    src_dir = str(pathlib.Path(afnd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, afnd.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src_dir},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
