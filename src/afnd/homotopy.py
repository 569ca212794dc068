"""Truncation-degree verifiers for morphism properties of affinoid algebras.

All three verdicts compare finitely presented models on degree-bounded
monomial bases, so a "holds" is a certificate at the stated truncation degree
and a "fails" comes with an explicit witness cycle.  When the target is
neither a localization chain nor a quotient of the base, or the Koszul
complex of a quotient's relators does not resolve it at the truncation
degree, or when a fold map fails only through the degree-bounded generic
layer of a presentation, the verdict is "unresolved" rather than a guess.

A homotopy epimorphism A -> B is an epimorphism with vanishing self-Tor, and
each fact is proved once.  Degree zero of B (x)^L_A B -> B is the
multiplication map B (x)_A B -> B, the fold map that `is_epimorphism`
reduces; the negative degrees are Tor_i^A(B, B), read by the same homology
scan that `check_transversal` runs with module = target = B.  The fold map's
source is that derived tensor's own H^0, for `is_epimorphism` too, except
on a quotient, which is its own self-tensor: its fold map is the identity.

Every matrix behind a verdict comes from `afnd.complexes`, and only
`derived_tensor` decides which relations are a target's relators: the
derived tensor is the Koszul complex of those relators, and the quotient
gate scans base (x)^L_base target, the complex that `transversal` then
reads when its module is the base.  A fold map between exact shape models
that is a bijection of variables, carrying Laurent pairs onto Laurent
pairs, is certified bijective with no matrix (`_exact_bijection`).  That
covers a localization step with exact normal forms, whose self-tensor
normalizes the primed copies of its fresh variables to the originals
(BGR 7.3.2 gives the isomorphism).  Any other fold map, such as one with a
generic relation at either end, is the one differential of a two-level
complex whose level-1 homology is its cokernel; its kernel rank follows
by rank-nullity from the same elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from afnd.affinoid import AffinoidPresentation, localization_path
from afnd.complexes import (
    ChainComplex,
    CycleWitness,
    MapComponent,
    Summand,
    derived_tensor,
    homology,
    koszul_h0,
)
from afnd.tate import TateElement

HOLDS = "holds"
FAILS = "fails"
UNRESOLVED = "unresolved"


@dataclass
class MorphismVerdict:
    status: str
    truncation: int
    detail: str
    homology_ranks: dict[int, int] = field(default_factory=dict)
    witness: Optional[CycleWitness] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _resolution_gate(
    base: AffinoidPresentation,
    target: AffinoidPresentation,
    degree: int,
) -> tuple[MorphismVerdict | None, tuple[ChainComplex, dict[int, int]] | None]:
    """Why the Koszul complex of the target's relators cannot be trusted as
    a resolution, or None when it can, and what the gate scanned.

    A localization chain is trusted: its relators have the shapes whose
    one-step resolutions compose.  A quotient of the base is trusted where
    base (x)^L_base target, the Koszul complex of its extra relations over
    the base itself, has no negative homology at the truncation degree;
    that complex and its negative-degree ranks are returned, so a caller
    that needs the same derived tensor scans no degree twice.  Nothing
    else has a resolution."""
    if localization_path(target, base) is not None:
        return None, None
    if target.ambient == base.ambient:
        cx = derived_tensor(base, base, target)[0]
        ranks, witness = _tor_ranks(cx, degree, -1)
        if witness is None:
            return None, (cx, ranks)
        return MorphismVerdict(
            UNRESOLVED, degree,
            "fallback Koszul complex does not resolve the target "
            "at this truncation degree",
        ), None
    return MorphismVerdict(
        UNRESOLVED, degree, "no resolution available for the target"
    ), None


def is_epimorphism(
    base: AffinoidPresentation, target: AffinoidPresentation, degree: int
) -> MorphismVerdict:
    """Is base -> target a categorical epimorphism at the truncation degree?

    Tested as bijectivity of the multiplication map from target (x)_base
    target onto target, on degree-bounded reduced bases.
    """
    if not target.is_over(base):
        return MorphismVerdict(
            UNRESOLVED, degree, "target is not presented over the base"
        )
    if target.is_zero_algebra:
        return MorphismVerdict(HOLDS, degree, "target is the zero algebra")
    # A quotient is its own self-tensor, so its fold map is the identity.
    if target.ambient != base.ambient:
        cx, rename = derived_tensor(target, base, target)
        square = koszul_h0(cx)
        kernel_rank, surjective, witness = _reduce_fold_map(
            square, target, rename, degree
        )
        if witness is not None:
            reasons = []
            if kernel_rank:
                reasons.append(f"kernel of rank {kernel_rank}")
            if not surjective:
                reasons.append("image misses part of the target basis")
            detail = "multiplication map not bijective: " + ", ".join(reasons)
            return _certified(
                MorphismVerdict(FAILS, degree, detail, {}, witness),
                square, target,
            )
    return MorphismVerdict(
        HOLDS, degree,
        "multiplication map bijective on degree-bounded bases",
    )


def _reduce_fold_map(
    big: AffinoidPresentation,
    target: AffinoidPresentation,
    rename: dict[str, str],
    degree: int,
) -> tuple[int, bool, Optional[CycleWitness]]:
    """The fold map big -> target (renamed copies sent back) as the one
    differential of a two-level complex.

    Returns the kernel rank, whether every degree-bounded target basis
    monomial is hit (no homology at level 1), and a witness when either
    fails: the first kernel vector, else the first unhit target monomial.
    A fold map that `_exact_bijection` certifies is bijective with no
    matrix.  Otherwise the level-1 homology eliminates the columns of the
    differential once; the kernel rank is the source dimension minus their
    rank, and only a kernel vector costs a second elimination.
    """
    inverse = {v: k for k, v in rename.items()}
    if _exact_bijection(big, target, inverse):
        return 0, True, None
    one = TateElement.constant(target.ambient, 1)
    fold = ChainComplex(
        target.field,
        {0: [Summand(big, "source")], 1: [Summand(target, "target")]},
        {0: {(0, 0): MapComponent(one, inverse)}},
    )
    rep = homology(fold, 1, degree)
    kernel_rank = fold.level_basis(0, degree).dim - rep.boundary_rank
    witness = rep.witness
    if kernel_rank:
        witness = homology(fold, 0, degree).witness
    return kernel_rank, rep.is_zero, witness


def _exact_bijection(
    big: AffinoidPresentation,
    target: AffinoidPresentation,
    inverse: dict[str, str],
) -> bool:
    """True when the fold map big -> target is bijective on every
    degree-bounded basis, read off the two presentations alone; False
    means not known.

    Both ends must have exact normal forms (neither the zero algebra nor
    generic relations), so their bases are their shape monomials: the
    monomials in the free variables with no whole Laurent pair.  Each free
    variable of `big`, sent back along `inverse`, must shape-normalize in
    the target to c*y with c != 0 and y a free target variable, one to one
    onto the target's free variables, and this map sigma must carry big's
    Laurent pairs onto the target's.  A shape monomial of degree d then
    maps to a nonzero multiple of the shape monomial of degree d that
    sigma names, so the fold matrix is a permutation with nonzero entries
    between bases of equal size at every D.  That is the case of a
    localization step with exact normal forms, whose self-tensor
    normalizes the primed copies of its fresh variables to the originals.
    """
    if any(a.is_zero_algebra or a.generic_relations for a in (big, target)):
        return False
    names = target.ambient.names
    sigma = {}
    for i in big.free_variable_indices():
        name = big.ambient.names[i]
        image = target.shape_normal(
            TateElement.variable(target.ambient, inverse.get(name, name))
        ).terms
        if len(image) != 1:
            return False
        [e] = image
        if sum(e) != 1:
            return False
        sigma[name] = names[e.index(1)]
    free = [names[i] for i in target.free_variable_indices()]
    if sorted(sigma.values()) != sorted(free):
        return False
    return {
        frozenset(map(sigma.get, pair)) for pair in big.laurent_pairs
    } == set(map(frozenset, target.laurent_pairs))


def _certified(
    failure: MorphismVerdict,
    big: AffinoidPresentation,
    target: AffinoidPresentation,
) -> MorphismVerdict:
    """A fold-map failure stands, with its witness, when both ends have
    exact normal forms.  The generic layer reduces only against relation
    multiples of degree <= D, so its normal forms need not be canonical and
    a failure seen through it proves nothing: the verdict is unresolved."""
    if big.generic_relations or target.generic_relations:
        failure.status, failure.witness = UNRESOLVED, None
        failure.detail += "; the degree-bounded generic layer cannot certify it"
    return failure


def is_homotopy_epi(
    base: AffinoidPresentation,
    target: AffinoidPresentation,
    degree: int,
) -> MorphismVerdict:
    """Is base -> target a homotopy epimorphism at the truncation degree?

    Tested as: target (x)^L_base target has vanishing negative homology
    (Tor_i(target, target) = 0 for i > 0) and its degree-zero part, the
    self-tensor target (x)_base target, maps bijectively onto the target
    (the epimorphism fold map), both on degree-bounded bases.
    """
    if not target.is_over(base):
        return MorphismVerdict(
            UNRESOLVED, degree, "target is not presented over the base"
        )
    if target.is_zero_algebra:
        return MorphismVerdict(HOLDS, degree, "target is the zero algebra")
    path = localization_path(target, base)
    if path is not None and len(path) > 2:
        # Homotopy epimorphisms compose, so an iterated localization is
        # verified one step at a time; each step stays small.
        nodes = path[::-1]
        for i in range(len(nodes) - 1):
            step = is_homotopy_epi(nodes[i], nodes[i + 1], degree)
            if step.status != HOLDS:
                step.detail = (
                    f"localization step {i + 1} of {len(nodes) - 1}: "
                    + step.detail
                )
                return step
        return MorphismVerdict(
            HOLDS, degree,
            "holds at every step of the localization chain",
        )
    blocked = _resolution_gate(base, target, degree)[0]
    if blocked is not None:
        return blocked
    cx, rename = derived_tensor(target, base, target)
    ranks, witness = _tor_ranks(cx, degree, -1)
    if witness is not None:
        return MorphismVerdict(
            FAILS, degree,
            "self-tensor has nonvanishing homology in negative degrees",
            ranks, witness,
        )
    square = koszul_h0(cx)
    if square.is_zero_algebra:
        # The fold map sends 1 (x) 1 to 1, so 1 = 0 in the target too.
        return MorphismVerdict(
            HOLDS, degree,
            "target is the zero algebra: its self-tensor collapses", ranks,
        )
    kernel_rank, hit, witness = _reduce_fold_map(square, target, rename, degree)
    if witness is not None:
        why = (
            f"fold map has kernel of rank {kernel_rank}" if kernel_rank
            else "fold map misses part of the target basis"
        )
        detail = f"degree-zero part differs from the target: {why}"
        return _certified(
            MorphismVerdict(FAILS, degree, detail, ranks, witness),
            square, target,
        )
    ranks[0] = 0
    return MorphismVerdict(
        HOLDS, degree,
        "self-tensor concentrated in degree zero and matching the target",
        ranks,
    )


def check_transversal(
    module: AffinoidPresentation,
    base: AffinoidPresentation,
    target: AffinoidPresentation,
    degree: int,
) -> MorphismVerdict:
    """Does module (x)^L_base target live in degree zero at the truncation?

    Holds when every negative homology group of the derived tensor vanishes
    on degree-bounded bases; the degree-zero rank is reported alongside.
    """
    if not module.is_over(base):
        return MorphismVerdict(
            UNRESOLVED, degree, "module is not presented over the base"
        )
    if not target.is_over(base):
        return MorphismVerdict(
            UNRESOLVED, degree, "target is not presented over the base"
        )
    if target.is_zero_algebra:
        return MorphismVerdict(HOLDS, degree, "target is the zero algebra")
    blocked, scanned = _resolution_gate(base, target, degree)
    if blocked is not None:
        return blocked
    if module is base and scanned is not None:
        # base (x)^L_base target is the complex the quotient gate scanned.
        cx, known = scanned
    else:
        cx, known = derived_tensor(module, base, target)[0], {}
    ranks, witness = _tor_ranks(cx, degree, 0, known)
    if witness is not None:
        return MorphismVerdict(
            FAILS, degree,
            "derived tensor has homology in negative degrees", ranks, witness,
        )
    return MorphismVerdict(
        HOLDS, degree, "derived tensor concentrated in degree zero", ranks
    )


def _tor_ranks(
    cx: ChainComplex, degree: int, top: int, known: dict[int, int] | None = None
) -> tuple[dict[int, int], Optional[CycleWitness]]:
    """Homology ranks of a derived tensor in degrees <= top, and the first
    witness of nonzero negative-degree homology.  The degrees of `known`,
    ranks already scanned with no witness, are not scanned again."""
    ranks = dict(known or {})
    witness = None
    for n in cx.degrees():
        if n > top or n in ranks:
            continue
        rep = homology(cx, n, degree)
        ranks[n] = rep.rank
        if n < 0 and rep.rank and witness is None:
            witness = rep.witness
    return ranks, witness
