"""Cover complexes of affinoid subdomains and acyclicity verdicts.

A cover is a base presentation together with localization pieces over it.
Its complex is the alternating one, indexed by strictly increasing index
subsets, with the usual deletion signs.  It is augmented: level 0 carries the
base, level q the q-fold intersections (tensor products over the base).  The
acyclicity check refuses to run until every piece has been verified to be a
homotopy epimorphism over the base at the requested truncation degree, and
reports strict exactness with certified preimage-norm constants.  A caller
that has already proved those verdicts at that degree passes them in as the
`precondition`, so a run proves each piece once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from afnd.affinoid import AffinoidPresentation, tensor_over
from afnd.complexes import (
    ChainComplex,
    ExactnessWitness,
    MapComponent,
    Summand,
    cycles,
    strict_exactness,
)
from afnd.homotopy import HOLDS, MorphismVerdict, is_homotopy_epi
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


@dataclass
class _Intersection:
    algebra: AffinoidPresentation
    # renames[k] maps the extra variables of pieces[tuple[k]] into the
    # intersection's ambient.
    renames: list[dict[str, str]]


def _build_intersection(
    cover: CoverData, idx: tuple[int, ...]
) -> _Intersection:
    if not idx:
        return _Intersection(cover.base, [])
    current = cover.pieces[idx[0]]
    renames: list[dict[str, str]] = [{}]
    for i in idx[1:]:
        current, rn = tensor_over(cover.base, current, cover.pieces[i])
        renames.append(rn)
    return _Intersection(current, renames)


def _restriction_rename(
    source: _Intersection,
    source_idx: tuple[int, ...],
    target: _Intersection,
    position_map: Sequence[int],
    cover: CoverData,
) -> dict[str, str]:
    """Variable rename for the restriction A_I -> A_J.

    position_map[k] is the position in the target tuple that the k-th entry
    of the source tuple maps to; base variables are shared.
    """
    rename: dict[str, str] = {}
    nbase = cover.base.ambient.nvars
    for k, i in enumerate(source_idx):
        piece = cover.pieces[i]
        for name in piece.ambient.names[nbase:]:
            src_name = source.renames[k].get(name, name)
            tgt_name = target.renames[position_map[k]].get(name, name)
            if src_name != tgt_name:
                rename[src_name] = tgt_name
    return rename


def build_complex(cover: CoverData, depth: int) -> ChainComplex:
    """The augmented alternating cover complex up to level `depth`."""
    npieces = len(cover.pieces)
    tuples: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for q in range(1, depth + 1):
        tuples[q] = list(combinations(range(npieces), q))
    data: dict[int, list[_Intersection]] = {}
    levels: dict[int, list[Summand]] = {}
    index_of: dict[int, dict[tuple[int, ...], int]] = {}
    for q, idx_list in tuples.items():
        data[q] = [_build_intersection(cover, idx) for idx in idx_list]
        levels[q] = [
            Summand(inter.algebra, idx)
            for inter, idx in zip(data[q], idx_list)
        ]
        index_of[q] = {idx: k for k, idx in enumerate(idx_list)}
    components: dict[int, dict[tuple[int, int], MapComponent]] = {}
    for q in range(depth):
        comps: dict[tuple[int, int], MapComponent] = {}
        for t_idx, jdx in enumerate(tuples[q + 1]):
            target = data[q + 1][t_idx]
            for t in range(q + 1):
                src = jdx[:t] + jdx[t + 1:]
                s_idx = index_of[q][src]
                source = data[q][s_idx]
                position_map = list(range(t)) + list(range(t + 1, q + 1))
                rename = _restriction_rename(
                    source, src, target, position_map, cover
                )
                sign = 1 if t % 2 == 0 else -1
                coeff = TateElement.constant(target.algebra.ambient, sign)
                comps[(t_idx, s_idx)] = MapComponent(coeff, rename)
        components[q] = comps
    return ChainComplex(cover.base.field, levels, components)


@dataclass
class AcyclicityReport:
    status: str  # "exact" | "fails" | "refused"
    truncation: int
    detail: str
    precondition: list[MorphismVerdict]
    injectivity_rank: int = 0
    witness: Optional[ExactnessWitness] = None
    constant: Optional[NormValue] = None

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def acyclicity_check(
    cover: CoverData,
    depth: int,
    degree: int,
    precondition: Sequence[MorphismVerdict] | None = None,
) -> AcyclicityReport:
    """Strict exactness of the augmented cover complex at the truncation.

    Refuses with a diagnostic unless every piece is verified to be a
    homotopy epimorphism over the base first.  `precondition` passes those
    verdicts, one per piece in order, when the caller has already proved
    them at this degree; without it the pieces are verified here.
    """
    if precondition is None:
        verdicts = [
            is_homotopy_epi(cover.base, piece, degree) for piece in cover.pieces
        ]
    else:
        verdicts = list(precondition)
        if len(verdicts) != len(cover.pieces) or any(
            v.truncation != degree for v in verdicts
        ):
            raise ValueError(
                "precondition needs one verdict per piece at this degree"
            )
    bad = [i for i, v in enumerate(verdicts) if v.status != HOLDS]
    if bad:
        details = "; ".join(
            f"piece {i}: {verdicts[i].status} ({verdicts[i].detail})" for i in bad
        )
        return AcyclicityReport(
            "refused", degree,
            "pieces not verified as homotopy epimorphisms: " + details,
            verdicts,
        )
    cx = build_complex(cover, depth)
    _, head_kernel = cycles(cx, 0, degree)
    # The alternating complex stops on its own at depth = number of pieces,
    # so its top position tests surjectivity.
    positions = [n for n in range(1, depth + 1) if n - 1 in cx.components]
    witness = strict_exactness(cx, degree, positions)
    constant = witness.constant
    if not head_kernel and witness.exact:
        return AcyclicityReport(
            "exact", degree, "augmented cover complex strictly exact",
            verdicts, 0, witness, constant,
        )
    return AcyclicityReport(
        "fails", degree,
        "augmented cover complex not exact at this truncation",
        verdicts, len(head_kernel), witness, constant,
    )
