"""Finite-dimensional non-Archimedean normed spaces in weighted orthogonal form.

A space is a finite orthogonal sum of one-dimensional spaces k_r, recorded by
its weight list; the norm of a coordinate vector is max_i |c_i| w_i.  In this
class the operator norm, the tensor product norm, and the strictness constants
of a morphism all have exact closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from afnd.linalg import NormAwareElimination, vector_norm
from afnd.scalar import FieldSpec, NormValue, Rational, scalar_norm


@dataclass(frozen=True)
class WeightedSpace:
    """An orthogonal sum of k_{w_1} ... k_{w_n}."""

    field: FieldSpec
    weights: tuple[NormValue, ...]

    def __post_init__(self) -> None:
        for w in self.weights:
            if w.is_zero:
                raise ValueError("weights must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def norm(self, coords: Sequence[Rational]) -> NormValue:
        if len(coords) != self.dim:
            raise ValueError("coordinate count mismatch")
        return vector_norm(self.field, [Fraction(c) for c in coords], self.weights)

    @staticmethod
    def line(field: FieldSpec, weight: NormValue) -> "WeightedSpace":
        return WeightedSpace(field, (weight,))


def sum_spaces(spaces: Sequence[WeightedSpace], field: FieldSpec | None = None) -> WeightedSpace:
    """Finite product = finite coproduct: concatenated weights."""
    if not spaces:
        if field is None:
            raise ValueError("empty sum needs an explicit field")
        return WeightedSpace(field, ())
    field = spaces[0].field
    weights: list[NormValue] = []
    for s in spaces:
        if s.field != field:
            raise ValueError("mixed base fields")
        weights.extend(s.weights)
    return WeightedSpace(field, tuple(weights))


def tensor_spaces(e: WeightedSpace, f: WeightedSpace) -> WeightedSpace:
    """Projective tensor product; weights are the outer product, row-major."""
    if e.field != f.field:
        raise ValueError("mixed base fields")
    weights = tuple(we * wf for we in e.weights for wf in f.weights)
    return WeightedSpace(e.field, weights)


class NormedMatrix:
    """A linear map between weighted spaces, entries exact rationals.

    Entry layout: entries[i][j] maps the j-th domain basis vector to the
    i-th codomain coordinate.
    """

    def __init__(
        self,
        entries: Sequence[Sequence[Rational]],
        domain: WeightedSpace,
        codomain: WeightedSpace,
    ):
        if domain.field != codomain.field:
            raise ValueError("mixed base fields")
        self.entries = [[Fraction(x) for x in row] for row in entries]
        if len(self.entries) != codomain.dim or any(
            len(row) != domain.dim for row in self.entries
        ):
            raise ValueError("matrix shape does not match the spaces")
        self.domain = domain
        self.codomain = codomain

    @property
    def field(self) -> FieldSpec:
        return self.domain.field

    def apply(self, coords: Sequence[Rational]) -> list[Fraction]:
        coords = [Fraction(c) for c in coords]
        return [
            sum((a * c for a, c in zip(row, coords)), Fraction(0))
            for row in self.entries
        ]

    def compose(self, inner: "NormedMatrix") -> "NormedMatrix":
        """self after inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition shape mismatch")
        entries = [
            [
                sum(
                    (self.entries[i][k] * inner.entries[k][j] for k in range(self.domain.dim)),
                    Fraction(0),
                )
                for j in range(inner.domain.dim)
            ]
            for i in range(self.codomain.dim)
        ]
        return NormedMatrix(entries, inner.domain, self.codomain)


def operator_norm(t: NormedMatrix) -> NormValue:
    """Exact operator norm: max over entries of |T_ij| w_cod_i / w_dom_j."""
    best = NormValue.zero()
    for i, row in enumerate(t.entries):
        for j, entry in enumerate(row):
            if entry:
                s = (
                    scalar_norm(t.field, entry)
                    * t.codomain.weights[i]
                    / t.domain.weights[j]
                )
                if s > best:
                    best = s
    return best


@dataclass(frozen=True)
class Classification:
    """Mono/epi/strictness verdict with exact norm-control constants.

    In finite dimension every image is closed, so `strict` is always true;
    the constants are the least ones in the sense of Banach-space strictness:
    `strict_mono_constant` C with ||e|| <= C ||T e||, and
    `strict_epi_constant` C with inf-preimage-norm <= C ||f|| on the image.
    A constant is None when the corresponding side is degenerate (zero map).
    """

    mono: bool
    epi: bool
    strict: bool
    strict_mono_constant: NormValue | None
    strict_epi_constant: NormValue | None


def classify(t: NormedMatrix) -> Classification:
    rows = [{j: x for j, x in enumerate(row) if x} for row in t.entries]
    elim = NormAwareElimination(
        t.field, rows, t.codomain.weights, t.domain.weights
    )
    r = elim.rank
    mono = r == t.domain.dim
    epi = r == t.codomain.dim
    smallest = elim.smallest_score()
    mono_c = smallest.inverse() if mono and r > 0 else None
    if mono and r == 0:
        mono_c = NormValue.one()  # zero-dimensional domain
    epi_c = smallest.inverse() if r > 0 else None
    if not mono:
        mono_c = None
    return Classification(
        mono=mono,
        epi=epi,
        strict=True,
        strict_mono_constant=mono_c,
        strict_epi_constant=epi_c,
    )
