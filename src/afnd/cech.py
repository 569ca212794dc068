"""Cover complexes of affinoid subdomains and acyclicity verdicts.

A cover is a base presentation together with localization pieces over it.  Its
complex is the alternating one, indexed by strictly increasing index subsets,
with the usual deletion signs.  It is augmented: level 0 carries the base,
level q the q-fold intersections (tensor products over the base).  The levels
are built in turn: each intersection is one pushout of an intersection one
level down, and each restriction map's rename is read off the block of
variables every piece owns in the ambients.  The acyclicity check takes the
verdicts that each piece is a homotopy epimorphism over the base at the
requested truncation degree, proved by the caller, and refuses to run unless
every one holds.  Its one report holds the verdict of
`complexes.strict_exactness` at each level, with its certified
preimage-norm constant, and the overall constant: the largest of an exact
level's, or 1.  Proving the pieces is left to the caller, so a run
proves each piece once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from afnd.affinoid import AffinoidPresentation, tensor_over
from afnd.complexes import (
    ChainComplex,
    DegreeVerdict,
    MapComponent,
    Summand,
    homology,
    strict_exactness,
)
from afnd.homotopy import HOLDS, MorphismVerdict
from afnd.scalar import NormValue
from afnd.tate import TateElement


@dataclass
class CoverData:
    """A finite cover of the base by localization pieces."""

    base: AffinoidPresentation
    pieces: tuple[AffinoidPresentation, ...]

    def __post_init__(self) -> None:
        for piece in self.pieces:
            if not piece.is_over(self.base):
                raise ValueError("every piece must be presented over the base")


def build_complex(cover: CoverData, depth: int) -> ChainComplex:
    """The augmented alternating cover complex up to level `depth`.

    Level q holds one summand per q-subset J of the pieces, labelled by J.
    Past level 1, the intersection of J is one pushout of the intersection
    of J less its last index along that piece.  `tensor_over` appends the
    piece's fresh variables after the ones it extends, so the intersection's
    variables are the base's and then one block per piece of J, in J's
    order.  The restriction from J less its t-th index sends each block to
    the same piece's block: its rename pairs the source's fresh names with
    the target's less block t.  components[q] is defined for every q <
    depth, empty once level q + 1 has no summands.
    """
    base, pieces = cover.base, cover.pieces
    nbase = base.ambient.nvars
    widths = [piece.ambient.nvars - nbase for piece in pieces]
    levels: dict[int, list[Summand]] = {0: [Summand(base, ())]}
    components: dict[int, dict[tuple[int, int], MapComponent]] = {}
    for q in range(1, depth + 1):
        below = {s.label: (k, s.algebra) for k, s in enumerate(levels[q - 1])}
        level: list[Summand] = []
        comps: dict[tuple[int, int], MapComponent] = {}
        for j, idx in enumerate(combinations(range(len(pieces)), q)):
            algebra = pieces[idx[-1]]
            if q > 1:
                algebra = tensor_over(base, below[idx[:-1]][1], algebra)[0]
            level.append(Summand(algebra, idx))
            fresh = algebra.ambient.names[nbase:]
            for t in range(q):
                s, source = below[idx[:t] + idx[t + 1:]]
                start = sum(widths[i] for i in idx[:t])
                kept = fresh[:start] + fresh[start + widths[idx[t]]:]
                rename = {
                    a: b
                    for a, b in zip(source.ambient.names[nbase:], kept)
                    if a != b
                }
                sign = 1 if t % 2 == 0 else -1
                coeff = TateElement.constant(algebra.ambient, sign)
                comps[(j, s)] = MapComponent(coeff, rename)
        levels[q] = level
        components[q - 1] = comps
    return ChainComplex(base.field, levels, components)


@dataclass
class AcyclicityReport:
    status: str  # "exact" | "fails" | "refused"
    truncation: int
    detail: str
    injectivity_rank: int = 0
    # One verdict per level 1..depth; none when refused.
    positions: list[DegreeVerdict] = field(default_factory=list)
    # The largest constant of an exact position, or 1; None when refused.
    constant: Optional[NormValue] = None

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def acyclicity_check(
    cover: CoverData,
    depth: int,
    degree: int,
    precondition: Sequence[MorphismVerdict],
) -> AcyclicityReport:
    """Strict exactness of the augmented cover complex at the truncation.

    `precondition` holds the verdicts that the pieces, in order, are
    homotopy epimorphisms over the base, proved at this degree; the check
    refuses with a diagnostic unless every one holds.
    """
    if len(precondition) != len(cover.pieces) or any(
        v.truncation != degree for v in precondition
    ):
        raise ValueError(
            "precondition needs one verdict per piece at this degree"
        )
    bad = [(i, v) for i, v in enumerate(precondition) if v.status != HOLDS]
    if bad:
        details = "; ".join(
            f"piece {i}: {v.status} ({v.detail})" for i, v in bad
        )
        return AcyclicityReport(
            "refused", degree,
            "pieces not verified as homotopy epimorphisms: " + details,
        )
    cx = build_complex(cover, depth)
    head_kernel = homology(cx, 0, degree).rank
    # Every level up to `depth` has its incoming differential, empty past the
    # number of pieces, so the top position tests surjectivity.
    positions = strict_exactness(cx, degree, range(1, depth + 1))
    constant = max(
        [NormValue.one(), *(v.constant for v in positions if v.exact)]
    )
    if not head_kernel and all(v.exact for v in positions):
        return AcyclicityReport(
            "exact", degree, "augmented cover complex strictly exact",
            0, positions, constant,
        )
    return AcyclicityReport(
        "fails", degree,
        "augmented cover complex not exact at this truncation",
        head_kernel, positions, constant,
    )
