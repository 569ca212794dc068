"""Exact base-field arithmetic and the factored norm-value domain.

Scalars are exact rationals: an `int` when integral and a
:class:`fractions.Fraction` otherwise (`as_entry`).  A quotient of two is
taken with `exact_div`, never with `/` on two ints, so no float arises.  The
base field is the rationals carrying either a p-adic absolute value or the
trivial one.  Norm values are kept in factored form (finite map prime ->
rational exponent) so that products, quotients and rational roots of radii
stay exact.  An exponent is stored as a scalar is: an `int` when integral
(every |a| = p^-v, and every radius that is a rational number) and a
`Fraction` only otherwise, so products, inverses and comparisons of such
values run in `int` arithmetic.  Two norm values are ordered in integers:
with d the difference of their exponent vectors and L the lcm of its
denominators, a > b exactly when the integer prod_{d_p > 0} p^(L d_p)
exceeds prod_{d_p < 0} p^(-L d_p).  Raising to the L-th power is strictly
increasing on positive reals, so this is the order of the real values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


# Miller-Rabin with the prime bases 2..37 decides primality of every n below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, decided once per n; a ValueError above
    the bound where the bases are proven."""
    if n >= _MR_BOUND:
        raise ValueError(
            f"{n} is too large to certify as prime (the bound is {_MR_BOUND})"
        )
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base valued field: (Q, |.|_p) or (Q, trivial)."""

    mode: str  # "p-adic" or "trivial"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.mode == "p-adic":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"p-adic mode needs a prime, got {self.p!r}")
        elif self.mode == "trivial":
            if self.p is not None:
                raise ValueError("trivial mode takes no prime")
        else:
            raise ValueError(f"unknown field mode {self.mode!r}")

    @staticmethod
    def padic(p: int) -> "FieldSpec":
        return FieldSpec("p-adic", p)

    @staticmethod
    def trivial() -> "FieldSpec":
        return FieldSpec("trivial")

    def __str__(self) -> str:
        return f"Q_{self.p}" if self.mode == "p-adic" else "Q(trivial)"


def as_entry(c: Rational) -> Rational:
    """An int or Fraction as an int when it is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def exact_div(a: Rational, b: Rational) -> Rational:
    """a / b exactly, as an int when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_entry(a / b)


def padic_valuation(a: Rational, p: int) -> int:
    """v_p(a) for a nonzero rational; raises on zero."""
    if not a:
        raise ValueError("v_p(0) is infinite")
    v, n = 0, a.numerator
    while n % p == 0:
        v += 1
        n //= p
    n = a.denominator
    while n % p == 0:
        v -= 1
        n //= p
    return v


class NormValue:
    """A nonnegative real of the form prod p_i^{e_i} (e_i rational), or zero.

    Immutable and hashable.  Exponents are nonzero, `int` when integral and
    `Fraction` otherwise, keyed by sorted primes.  Equality is equality of
    exponent maps; the total order agrees with the real values.
    """

    __slots__ = ("_exps",)

    def __init__(self, exponents: Mapping[int, Rational] | None = None):
        # None encodes zero; the empty map encodes one.
        if exponents is None:
            object.__setattr__(self, "_exps", None)
            return
        cleaned = {}
        for p, e in exponents.items():
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            if isinstance(e, float):
                raise TypeError(f"inexact exponent {e!r}")
            e = as_entry(Fraction(e))
            if e != 0:
                cleaned[p] = e
        object.__setattr__(
            self, "_exps", tuple(sorted(cleaned.items()))
        )

    @staticmethod
    def _trusted_exps(exponents: dict[int, Rational]) -> "NormValue":
        """A norm value from a map prime -> exponent built by arithmetic on
        validated values, or from a certified prime: zero exponents are
        dropped, integral ones made ints (as `as_entry` does, inline on this
        hot path) and the primes sorted, with no prime check.  Only this
        module builds values this way."""
        out = object.__new__(NormValue)
        object.__setattr__(out, "_exps", tuple(sorted(
            (p, e if type(e) is int or e.denominator != 1 else e.numerator)
            for p, e in exponents.items() if e
        )))
        return out

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("NormValue is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "NormValue":
        return NormValue(None)

    @staticmethod
    def one() -> "NormValue":
        return NormValue({})

    @staticmethod
    def prime_power(p: int, e: Rational) -> "NormValue":
        return NormValue({p: e})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._exps is None

    @property
    def exponents(self) -> dict[int, Rational]:
        if self._exps is None:
            raise ValueError("zero has no factorization")
        return dict(self._exps)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "NormValue") -> "NormValue":
        if self._exps is None:
            return self
        if other._exps is None:
            return other
        # A product with one is the other factor itself, so that equal
        # products of weights of radius 1 share one object.
        if not other._exps:
            return self
        if not self._exps:
            return other
        exps = dict(self._exps)
        for p, e in other._exps:
            exps[p] = exps.get(p, 0) + e
        return NormValue._trusted_exps(exps)

    def __truediv__(self, other: "NormValue") -> "NormValue":
        return self * other.inverse()

    def inverse(self) -> "NormValue":
        if self._exps is None:
            raise ZeroDivisionError("inverse of zero norm value")
        return NormValue._trusted_exps({p: -e for p, e in self._exps})

    def __pow__(self, k: Rational) -> "NormValue":
        k = Fraction(k)
        if self._exps is None:
            if k <= 0:
                raise ZeroDivisionError("0 to a nonpositive power")
            return NormValue.zero()
        return NormValue({p: e * k for p, e in self._exps})

    # -- ordering ----------------------------------------------------------

    def compare(self, other: "NormValue") -> int:
        """Trichotomous comparison, -1 / 0 / +1."""
        if not isinstance(other, NormValue):
            raise TypeError("can only compare NormValue with NormValue")
        if self._exps == other._exps:
            return 0
        if self._exps is None:
            return -1
        if other._exps is None:
            return 1
        diff = dict(self._exps)
        for p, e in other._exps:
            diff[p] = diff.get(p, 0) - e
        # Monotone fast path: every prime is > 1, so a difference of exponent
        # vectors with a consistent sign decides the comparison outright.
        pos = neg = False
        for d in diff.values():
            if d > 0:
                pos = True
            elif d < 0:
                neg = True
        if not neg:
            return 1
        if not pos:
            return -1
        # Mixed signs: compare the L-th powers of both sides as integers.
        L = math.lcm(*(d.denominator for d in diff.values()))
        up = down = 1
        for p, d in diff.items():
            k = d.numerator * (L // d.denominator)
            if k > 0:
                up *= p**k
            elif k < 0:
                down *= p**-k
        return 1 if up > down else -1

    def __eq__(self, other) -> bool:
        return isinstance(other, NormValue) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(("NormValue", self._exps))

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if self._exps is None:
            return "0"
        if not self._exps:
            return "1"
        parts = []
        for p, e in self._exps:
            if e == 1:
                parts.append(str(p))
            elif e.denominator == 1:
                parts.append(f"{p}^{e.numerator}")
            else:
                parts.append(f"{p}^{e.numerator}/{e.denominator}")
        return "*".join(parts)

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "NormValue":
        """Inverse of str(): "0", "1", or factors like "5^-2*2^1/3".

        Text of any other form raises one ValueError saying what is
        expected; a zero denominator raises ZeroDivisionError."""
        text = text.strip()
        if text == "0":
            return NormValue.zero()
        if text == "1":
            return NormValue.one()
        exps: dict[int, Fraction] = {}
        for part in text.split("*"):
            base, caret, exp = part.partition("^")
            try:
                p, e = int(base), (Fraction(exp) if caret else Fraction(1))
            except ValueError:
                raise ValueError(
                    "expected 0, 1, or factors P or P^E joined by '*', "
                    "with P a prime and E a rational literal"
                ) from None
            exps[p] = exps.get(p, Fraction(0)) + e
        return NormValue(exps)


def scalar_norm(spec: FieldSpec, a: Rational) -> NormValue:
    """|a| in the chosen field: 0 at zero, p^(-v_p(a)) or trivially 1."""
    if not a:
        return NormValue.zero()
    if spec.mode == "trivial":
        return NormValue.one()
    # FieldSpec has certified the prime.
    return NormValue._trusted_exps({spec.p: -padic_valuation(a, spec.p)})


def max_norm(values: Iterable[NormValue]) -> NormValue:
    """Maximum of a (possibly empty) collection; empty max is zero."""
    best = NormValue.zero()
    for v in values:
        if v > best:
            best = v
    return best
