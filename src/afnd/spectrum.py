"""Point samples on the analytic spectrum and pointwise cover checks.

Two kinds of sample points are exact enough to evaluate seminorms on without
approximation: rigid points with rational coordinates, and Gauss points
(centers of polydiscs with factored radii).  On a polynomial representative
both seminorms have closed forms, so membership of a point in a rational
subdomain |f_i| <= r_i |g| is decided exactly.  A domain is a tuple of
`DomainInequality`, their conjunction; `domain_of` reads one off a
localization chain, on the polydisc at its root.

A pointwise cover check is a falsifier, not a proof: a cover that passes the
sample may still have gaps, and the conservativity probe shows that
tensor-vanishing against the pieces cannot detect them either, which is why
the sample includes Gauss points at non-rational radii between the rigid
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from afnd.affinoid import (
    AffinoidPresentation,
    DomainInequality,
    localization_path,
    tensor_over,
)
from afnd.scalar import NormValue, scalar_norm
from afnd.tate import Polyradius, TateElement


@dataclass(frozen=True)
class RigidPoint:
    coords: tuple[Fraction, ...]

    def __str__(self) -> str:
        return "rigid(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class GaussPoint:
    center: tuple[Fraction, ...]
    radii: tuple[NormValue, ...]

    def __str__(self) -> str:
        inner = ", ".join(
            f"{c}±{r}" for c, r in zip(self.center, self.radii)
        )
        return f"gauss({inner})"


BerkovichPointSample = Union[RigidPoint, GaussPoint]


def seminorm(point: BerkovichPointSample, f: TateElement) -> NormValue:
    """The value of |f| at the sample point, exactly."""
    if isinstance(point, RigidPoint):
        return scalar_norm(f.ambient.field, f.evaluate(point.coords))
    return f.recenter(point.center).gauss_seminorm(point.radii)


def domain_of(piece: AffinoidPresentation) -> tuple[DomainInequality, ...]:
    """The domain cut out by a localization's recorded inequalities, as the
    conjunction of every |num| <= bound * |den| along its chain.

    The localization chain is walked back to its root, and the inequalities
    of every step are re-expressed on the root's ambient, where the sample
    points live.
    """
    if piece.localization is None:
        raise ValueError("piece carries no localization data")
    path = localization_path(piece)
    root = path[-1].ambient
    ineqs = tuple(
        DomainInequality(
            _on_root(ineq.num, root), _on_root(ineq.den, root), ineq.bound
        )
        for node in reversed(path[:-1])
        for ineq in node.localization.inequalities
    )
    if not ineqs:
        raise ValueError("piece carries no domain inequalities")
    return ineqs


def _on_root(f: TateElement, root: Polyradius) -> TateElement:
    """f, which uses only the root's variables, as an element on `root`."""
    if f.ambient == root:
        return f
    positions = [f.ambient.index(n) for n in root.names]
    extra = [n for i, n in enumerate(f.ambient.names) if i not in positions]
    for n in extra:
        if f.uses(n):
            raise ValueError(
                f"domain inequality uses the localization variable {n!r}"
            )
    return TateElement(
        root, {tuple(e[i] for i in positions): c for e, c in f.terms.items()}
    )


def member(
    point: BerkovichPointSample, domain: Sequence[DomainInequality]
) -> bool:
    return all(
        seminorm(point, ineq.num) <= ineq.bound * seminorm(point, ineq.den)
        for ineq in domain
    )


def default_sample(ambient: Polyradius) -> list[BerkovichPointSample]:
    """The standard falsification sample on a polydisc over a p-adic field.

    Rigid points: the origin and p^k on the diagonal for k = 0, 1, 2;
    Gauss points centered at the origin with radii p^(-q) for
    q = 0, 1/2, 1, 3/2, 2.  Points outside the polydisc are skipped.
    """
    field = ambient.field
    if field.mode != "p-adic":
        raise ValueError("default sample needs a p-adic base field")
    p = field.p
    n = ambient.nvars
    points: list[BerkovichPointSample] = [RigidPoint((Fraction(0),) * n)]
    for k in range(3):
        c = Fraction(p) ** k
        if all(scalar_norm(field, c) <= r for r in ambient.radii):
            points.append(RigidPoint((c,) * n))
    for q in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        rho = NormValue.prime_power(p, -q)
        if all(rho <= r for r in ambient.radii):
            points.append(
                GaussPoint((Fraction(0),) * n, (rho,) * n)
            )
    return points


@dataclass
class CoverCheckReport:
    covered: bool
    points_checked: int
    witnesses: list[BerkovichPointSample]


def cover_check(
    domains: Sequence[Sequence[DomainInequality]],
    points: Sequence[BerkovichPointSample],
) -> CoverCheckReport:
    """Does every sample point land in some domain of the family?"""
    witnesses = [
        pt for pt in points if not any(member(pt, d) for d in domains)
    ]
    return CoverCheckReport(not witnesses, len(points), witnesses)


@dataclass
class ConservativityReport:
    """Outcome of probing a cover with an auxiliary nonzero algebra.

    `violated` means the probe algebra is nonzero while all its tensor
    products with the pieces vanish: no tensor-vanishing argument against
    the pieces can certify the cover.
    """

    probe_nonzero: bool
    tensors_zero: list[bool]
    violated: bool


def conservativity_probe(
    base: AffinoidPresentation,
    pieces: Sequence[AffinoidPresentation],
    probe: AffinoidPresentation,
) -> ConservativityReport:
    probe_nonzero = not probe.is_zero_algebra
    tensors_zero = [
        tensor_over(base, probe, piece)[0].is_zero_algebra for piece in pieces
    ]
    return ConservativityReport(
        probe_nonzero, tensors_zero, probe_nonzero and all(tensors_zero)
    )
