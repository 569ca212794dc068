"""Tate algebras on polydiscs of factored polyradius.

Elements are finitely supported polynomials over the base field, tagged with
their ambient polyradius.  Polynomials are dense in the full algebra of
convergent series, and every downstream verdict is certified at a truncation
degree, so series tails never enter any statement made by this package.
Elements are validated where they enter (the public constructor, `monomial`,
`variable`, `constant`, `parse_element`); results of arithmetic are built by
a trusted constructor that only drops zero coefficients.  Either way an
integral coefficient is stored as an `int` (`scalar.as_entry`) and any other
as a `Fraction`, so products of integral elements run in `int` arithmetic.
Every product runs one loop on term maps (`multiply_terms`).

Exponent vectors are ordered grevlex (total degree, then reversed-lexicographic
tiebreak on variable index) for canonical printing and deterministic
reduction.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, TypeVar

from afnd.scalar import (
    FieldSpec, NormValue, Rational, as_entry, max_norm, scalar_norm
)

Exponent = tuple[int, ...]
V = TypeVar("V")


def grevlex_key(exponent: Exponent):
    """Sort key: ascending total degree, grevlex within a degree."""
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


def walk_down(
    exponent: Exponent, known: Mapping[Exponent, V]
) -> tuple[V, list[tuple[Exponent, int]]]:
    """Lower the last nonzero coordinate of `exponent` until an exponent in
    `known` is reached, which must hold the zero exponent.

    Returns the value found and the steps back up: (e, i) for each exponent
    e passed on the way, lowest first, with i the coordinate lowered at e.
    Memos of multiplicative values walk back up with one product per step.
    """
    value = known.get(exponent)
    steps = []
    while value is None:
        i = len(exponent) - 1
        while not exponent[i]:
            i -= 1
        steps.append((exponent, i))
        exponent = exponent[:i] + (exponent[i] - 1,) + exponent[i + 1:]
        value = known.get(exponent)
    steps.reverse()
    return value, steps


@dataclass(frozen=True)
class Polyradius:
    """Named variables with positive radii: the ambient algebra k{r^-1 x}."""

    field: FieldSpec
    names: tuple[str, ...]
    radii: tuple[NormValue, ...]
    # monomial_weight results; the radii are fixed, so entries never go stale.
    _weights: dict[Exponent, NormValue] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.names) != len(set(self.names)):
            raise ValueError(f"duplicate variable names in {self.names}")
        if len(self.names) != len(self.radii):
            raise ValueError("one radius per variable required")
        for r in self.radii:
            if r.is_zero:
                raise ValueError("radii must be positive")
        self._weights[(0,) * len(self.names)] = NormValue.one()

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self.names}") from None

    def radius_of(self, name: str) -> NormValue:
        return self.radii[self.index(name)]

    def monomial_weight(self, exponent: Exponent) -> NormValue:
        """r^e: the weight of a known lower neighbour (`walk_down`) times
        radii, one product per exponent not seen before."""
        w, steps = walk_down(exponent, self._weights)
        for e, i in steps:
            w = self._weights[e] = w * self.radii[i]
        return w

    def extend(self, names: Sequence[str], radii: Sequence[NormValue]) -> "Polyradius":
        return Polyradius(self.field, self.names + tuple(names), self.radii + tuple(radii))

    def __str__(self) -> str:
        inner = ", ".join(f"{n}:{r}" for n, r in zip(self.names, self.radii))
        return f"{self.field}{{{inner}}}"


class PairRelations:
    """Relations u*v = q on disjoint pairs of variables of one ambient.

    Each relation sends a monomial u^a v^b to q^m u^(a-m) v^(b-m),
    m = min(a, b).  The normal exponent of a monomial and its factor are
    worked out once per exponent and kept, since a presentation reduces the
    same exponents over and over while it builds its matrices.
    """

    def __init__(
        self, ambient: Polyradius, pairs: Mapping[tuple[str, str], Rational]
    ):
        self._idx = [
            (ambient.index(u), ambient.index(v), as_entry(q))
            for (u, v), q in pairs.items()
        ]
        # exponent -> (normal exponent, factor), None for a factor of 1:
        # x^exponent = factor * x^(normal exponent).  Read it first, and
        # call `normal` on a miss.
        self.known: dict[Exponent, tuple[Exponent, Rational | None]] = {}

    def __bool__(self) -> bool:
        return bool(self._idx)

    def normal(self, exponent: Exponent) -> tuple[Exponent, Rational | None]:
        """Work out, keep and return the entry of `known` for `exponent`."""
        e = list(exponent)
        f = 1
        for iu, iv, q in self._idx:
            m = min(e[iu], e[iv])
            if m:
                e[iu] -= m
                e[iv] -= m
                f *= q**m
        out = self.known[exponent] = (tuple(e), None if f == 1 else as_entry(f))
        return out


def multiply_terms(
    left: Mapping[Exponent, Rational],
    right: Mapping[Exponent, Rational],
    pairs: PairRelations | None = None,
) -> dict[Exponent, Rational]:
    """The term map of a product of two term maps, each product term sent
    to its normal exponent under `pairs` as it is made.  Zero coefficients
    are dropped and integral ones made ints, as in a `TateElement`."""
    known = pairs.known.get if pairs else None
    terms: dict[Exponent, Rational] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            if known is not None:
                e, f = known(e) or pairs.normal(e)
                if f is not None:
                    c *= f
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
    return {
        e: c if type(c) is int else as_entry(c) for e, c in terms.items() if c
    }


class TateElement:
    """A polynomial representative of an element of the ambient Tate algebra."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: Polyradius, terms: Mapping[Exponent, Rational]):
        self.ambient = ambient
        cleaned: dict[Exponent, Rational] = {}
        for exponent, c in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != ambient.nvars or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for {ambient}")
            if type(c) is not int:
                if isinstance(c, float):
                    raise TypeError(f"inexact coefficient {c!r}")
                c = Fraction(c)
            if c != 0:
                prev = cleaned.get(exponent)
                cleaned[exponent] = c if prev is None else prev + c
        self.terms = {e: as_entry(c) for e, c in cleaned.items() if c != 0}

    @classmethod
    def _trusted(
        cls, ambient: Polyradius, terms: Mapping[Exponent, Rational]
    ) -> "TateElement":
        """A result of this package's own arithmetic: exponents are tuples
        of the ambient's length and coefficients ints or Fractions already,
        so only the zero coefficients are dropped and integral Fractions
        made ints."""
        out = cls.__new__(cls)
        out.ambient = ambient
        out.terms = {e: as_entry(c) for e, c in terms.items() if c}
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ambient: Polyradius) -> "TateElement":
        return TateElement(ambient, {})

    @staticmethod
    def constant(ambient: Polyradius, c: Rational) -> "TateElement":
        return TateElement(ambient, {(0,) * ambient.nvars: c})

    @staticmethod
    def variable(ambient: Polyradius, name: str) -> "TateElement":
        exponent = [0] * ambient.nvars
        exponent[ambient.index(name)] = 1
        return TateElement(ambient, {tuple(exponent): 1})

    @staticmethod
    def monomial(ambient: Polyradius, exponent: Exponent, c: Rational = 1) -> "TateElement":
        return TateElement(ambient, {tuple(exponent): c})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Rational:
        return self.terms.get((0,) * self.ambient.nvars, 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponent, Rational]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def uses(self, name: str) -> bool:
        i = self.ambient.index(name)
        return any(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ambient(self, other: "TateElement") -> None:
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def __add__(self, other: "TateElement") -> "TateElement":
        self._check_same_ambient(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        return TateElement._trusted(self.ambient, terms)

    def __neg__(self) -> "TateElement":
        return TateElement._trusted(
            self.ambient, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "TateElement") -> "TateElement":
        return self + (-other)

    def __mul__(self, other: "TateElement") -> "TateElement":
        return self.mul_cancel(other, None)

    def scale(self, c: Rational) -> "TateElement":
        return TateElement._trusted(
            self.ambient, {e: c * v for e, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "TateElement":
        if k < 0:
            raise ValueError("negative power")
        out = TateElement.constant(self.ambient, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TateElement)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(self.sorted_terms())))

    # -- norms and evaluation ---------------------------------------------

    def gauss_norm(self) -> NormValue:
        field = self.ambient.field
        return max_norm(
            scalar_norm(field, c) * self.ambient.monomial_weight(e)
            for e, c in self.terms.items()
        )

    def gauss_seminorm(self, rho: Sequence[NormValue]) -> NormValue:
        """The Gauss-point seminorm max |a_I| rho^I, for 0 < rho <= r."""
        if len(rho) != self.ambient.nvars:
            raise ValueError("one radius per variable required")
        for s, r in zip(rho, self.ambient.radii):
            if s.is_zero or s > r:
                raise ValueError(f"radius {s} outside the ambient polydisc")
        field = self.ambient.field
        at = Polyradius(field, self.ambient.names, tuple(rho))
        return max_norm(
            scalar_norm(field, c) * at.monomial_weight(e)
            for e, c in self.terms.items()
        )

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        if len(point) != self.ambient.nvars:
            raise ValueError("one coordinate per variable required")
        field = self.ambient.field
        for x, r in zip(point, self.ambient.radii):
            if scalar_norm(field, x) > r:
                raise ValueError(f"point coordinate {x} outside the polydisc")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    # -- reshaping ---------------------------------------------------------

    def in_ambient(
        self, ambient: Polyradius, rename: Mapping[str, str] | None = None
    ) -> "TateElement":
        """Push the element into a larger ambient, optionally renaming."""
        rename = rename or {}
        positions = []
        for name in self.ambient.names:
            positions.append(ambient.index(rename.get(name, name)))
        terms: dict[Exponent, Rational] = {}
        for e, c in self.terms.items():
            new = [0] * ambient.nvars
            for pos, k in zip(positions, e):
                new[pos] += k
            new_t = tuple(new)
            prev = terms.get(new_t)
            terms[new_t] = c if prev is None else prev + c
        return TateElement._trusted(ambient, terms)

    def substitute(self, name: str, replacement: "TateElement") -> "TateElement":
        """Exact substitution of one variable by an element of the same ambient."""
        self._check_same_ambient(replacement)
        i = self.ambient.index(name)
        powers = [TateElement.constant(self.ambient, 1)]
        terms: dict[Exponent, Rational] = {}
        for e, c in self.sorted_terms():
            k = e[i]
            while len(powers) <= k:
                powers.append(powers[-1] * replacement)
            rest = e[:i] + (0,) + e[i + 1:]
            for pe, pc in powers[k].terms.items():
                t = tuple(map(add, pe, rest))
                v = pc * c
                prev = terms.get(t)
                terms[t] = v if prev is None else prev + v
        return TateElement._trusted(self.ambient, terms)

    def mul_cancel(
        self, other: "TateElement", pairs: PairRelations | None
    ) -> "TateElement":
        """self * other with each relation u*v = q of `pairs`, if any,
        applied exactly (`multiply_terms`)."""
        self._check_same_ambient(other)
        return TateElement._trusted(
            self.ambient, multiply_terms(self.terms, other.terms, pairs)
        )

    def recenter(self, center: Sequence[Rational]) -> "TateElement":
        """Exact shift x_i -> x_i + c_i (used for Gauss points off the origin)."""
        out = self
        ambient = self.ambient
        for name, c in zip(ambient.names, center):
            c = Fraction(c)
            if c != 0:
                shift = TateElement.variable(ambient, name) + TateElement.constant(ambient, c)
                out = out.substitute(name, shift)
        return out

    # -- printing / parsing ------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.ambient.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op>[-+*^()]))"
)


class ElementSyntaxError(ValueError):
    pass


def parse_element(text: str, ambient: Polyradius) -> TateElement:
    """Parse "5 + 3*x^2*y - 1/5*z" into a TateElement."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ElementSyntaxError(f"bad character at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("number", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    tokens.append(("end", ""))

    idx = 0

    def peek() -> tuple[str, str]:
        return tokens[idx]

    def advance() -> tuple[str, str]:
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_sum() -> TateElement:
        out = parse_signed()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            _, op = advance()
            term = parse_signed()
            out = out + term if op == "+" else out - term
        return out

    def parse_signed() -> TateElement:
        sign = 1
        while peek() in (("op", "-"), ("op", "+")):
            if advance()[1] == "-":
                sign = -sign
        term = parse_product()
        return term if sign == 1 else -term

    def parse_product() -> TateElement:
        out = parse_power()
        while peek()[0] in ("number", "name") or peek() in (("op", "*"), ("op", "(")):
            if peek() == ("op", "*"):
                advance()
            out = out * parse_power()
        return out

    def parse_power() -> TateElement:
        base = parse_atom()
        if peek() == ("op", "^"):
            advance()
            kind, val = advance()
            if kind != "number" or "/" in val:
                raise ElementSyntaxError("exponent must be a nonnegative integer")
            return base ** int(val)
        return base

    def parse_atom() -> TateElement:
        kind, val = advance()
        if kind == "number":
            try:
                c = Fraction(val)
            except ZeroDivisionError:
                raise ElementSyntaxError("zero denominator") from None
            return TateElement.constant(ambient, c)
        if kind == "name":
            try:
                return TateElement.variable(ambient, val)
            except KeyError:
                raise ElementSyntaxError(
                    f"unknown variable {val!r}"
                ) from None
        if (kind, val) == ("op", "("):
            inner = parse_sum()
            if advance() != ("op", ")"):
                raise ElementSyntaxError("missing closing parenthesis")
            return inner
        raise ElementSyntaxError(f"unexpected token {val!r}")

    out = parse_sum()
    if peek()[0] != "end":
        raise ElementSyntaxError(f"trailing input at {peek()[1]!r}")
    return out


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Deterministic rename on collision: append primes."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "'"
    return name

