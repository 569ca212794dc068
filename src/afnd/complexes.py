"""Bounded complexes of affinoid modules, with truncation-degree homology.

A level of a complex is a finite sum of summands, each carrying an affinoid
presentation; its degree-D model is the weighted orthogonal space spanned by
the normal-form monomials of total degree <= D of each summand.  A
differential has at most one component per (target, source) summand pair; it
pushes the element along a variable rename and multiplies by a fixed
coefficient.  That covers Koszul differentials (multiplication by a
relator), restriction maps between localizations (coefficient 1, rename of
tensor variables) and the fold map of a self-tensor onto its factor
(coefficient 1, renamed copies sent back).

This module is the one place where a linear map between presentations
becomes a matrix: exact, sparse, one row per target basis vector, built once
per complex and degree.  Its columns, and the cycles it re-expresses, are
term maps from a walk that starts at the component's coefficient
(`AffinoidPresentation.pushed_images`), not elements.  Ranks need no norms,
so the monomial weights of a level basis and the norm of a witness cycle
are computed when read: by `strict_exactness`, which pairs the
`HomologyReport` of each position with the `normed.strict_epi_constant`
of its incoming differential, or by a printed witness.
Images that overflow the requested degree enlarge the target truncation
instead of dropping terms.  "Homology vanishes at degree D" therefore means:
every cycle supported in degree <= D is the boundary of a chain supported in
degree <= D.

Some differentials are known injective with no matrix
(`ChainComplex.known_injective`).  A summand with exact normal forms has a
domain as its shape model, and multiplication by a nonzero element of a
domain has kernel 0.  So where d^n multiplies a one-summand level with
exact normal forms into itself by a coefficient of nonzero shape normal
form, `homology` takes no kernel: the Koszul complex of one nonzerodivisor
is a resolution (Eisenbud, Commutative Algebra, 17.2).

A derived tensor module (x)^L_base target is the Koszul complex of the
target's own relators, its relations past the base's, over the pushout
module (x)_base target without them (`derived_tensor`); that pushout is
its H^0 (`koszul_h0`), built only where a verdict reads it: one derived
self-tensor serves both the self-Tor scan and the fold map of a verdict,
and a quotient, its own self-tensor, needs no fold map.

Homology is the cycles modulo the boundaries: each cycle is reduced
against the reduced echelon form of the boundaries, and the rank of the
remainders, from `sparse_rref` again, is the homology rank.
`strict_exactness` finds no cycle where ranks suffice: it eliminates each
differential at most once, norm-aware, and that one elimination gives both
the rank of d^n and the constant of position n + 1.  Where d^(n-1) did not
grow past the degree and d^n d^(n-1) = 0, rank d^(n-1) + rank d^n = dim L_n
proves position n exact; any other position is `homology`'s, which stays
the one code that finds cycles.  All Gauss-Jordan elimination is
`afnd.linalg`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, Optional, Sequence

from afnd.affinoid import AffinoidPresentation, pushout
from afnd.linalg import (
    NormAwareElimination, SparseRow, kernel_basis, reduce_against, sparse_rref
)
from afnd.normed import strict_epi_constant
from afnd.scalar import FieldSpec, NormValue, Rational, max_norm, scalar_norm
from afnd.tate import Exponent, Polyradius, TateElement


@dataclass(frozen=True)
class Summand:
    algebra: AffinoidPresentation
    label: tuple


@dataclass(frozen=True)
class MapComponent:
    """w -> coeff * push(w), push renaming source variables into the target."""

    coeff: TateElement
    rename: Mapping[str, str] | None = None


@dataclass
class LevelBasis:
    entries: list[tuple[int, Exponent]]  # (summand index, exponent)
    truncation: int
    index: dict[tuple[int, Exponent], int]  # entry -> position
    ambients: list[Polyradius]  # per summand of the level

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def weights(self) -> list[NormValue]:
        return [self.ambients[si].monomial_weight(e) for si, e in self.entries]

    def part_terms(self, coords: SparseRow) -> dict[int, dict]:
        """A sparse vector as one term map per summand it touches."""
        terms: dict[int, dict[Exponent, Rational]] = {}
        for k, c in coords.items():
            si, e = self.entries[k]
            terms.setdefault(si, {})[e] = c
        return terms

    def parts(self, coords: SparseRow) -> dict[int, TateElement]:
        """A sparse vector as one element per summand it touches."""
        terms = self.part_terms(coords)
        return {si: TateElement(self.ambients[si], t) for si, t in terms.items()}


@dataclass
class DifferentialMatrix:
    """d^n on degree-bounded bases: one sparse row per target basis vector,
    keyed by source basis index.  Shared by every caller; do not mutate."""

    source: LevelBasis
    target: LevelBasis
    entries: list[SparseRow]


class ChainComplex:
    """levels[n] with differentials d^n: levels[n] -> levels[n+1]."""

    def __init__(
        self,
        field: FieldSpec,
        levels: Mapping[int, Sequence[Summand]],
        components: Mapping[int, Mapping[tuple[int, int], MapComponent]],
    ):
        self.field = field
        self.levels = {n: list(ss) for n, ss in levels.items()}
        # components[n][(target_summand, source_summand)]: one map per pair.
        self.components = {n: dict(cs) for n, cs in components.items()}
        self._bases: dict[tuple[int, int], LevelBasis] = {}
        self._matrices: dict[tuple[int, int], DifferentialMatrix] = {}
        for n, cs in self.components.items():
            for (t, s) in cs:
                if n not in self.levels or n + 1 not in self.levels:
                    raise ValueError(f"differential d^{n} has no endpoints")
                if s >= len(self.levels[n]) or t >= len(self.levels[n + 1]):
                    raise ValueError(f"component index out of range at d^{n}")

    def degrees(self) -> list[int]:
        return sorted(self.levels)

    def level_basis(self, n: int, degree: int) -> LevelBasis:
        """The degree-<=degree basis of level n, built once per (n, degree)
        and shared like the matrices."""
        key = (n, degree)
        if key not in self._bases:
            algebras = [s.algebra for s in self.levels.get(n, [])]
            entries = [
                (si, e)
                for si, alg in enumerate(algebras)
                for e in alg.monomial_basis(degree)
            ]
            index = {k: j for j, k in enumerate(entries)}
            self._bases[key] = LevelBasis(
                entries, degree, index, [alg.ambient for alg in algebras]
            )
        return self._bases[key]

    def known_injective(self, n: int) -> bool:
        """True when d^n is injective on every degree-bounded basis, read
        off the components alone; False means not known.

        Level n must be one summand whose presentation has
        `exact_normal_forms`.  Its shape model is then K[free variables]/
        (u*v - q, q != 0) over disjoint Laurent pairs, a polynomial ring
        tensored with Laurent rings, so a domain.  A component that
        multiplies into that same presentation object, with no rename, by a
        coefficient whose shape normal form is nonzero is then injective,
        and so is d^n.  Its matrix columns are
        exact shape normal forms, since no generic layer reduces them.
        """
        level = self.levels.get(n, [])
        if len(level) != 1:
            return False
        algebra = level[0].algebra
        if not algebra.exact_normal_forms:
            return False
        return any(
            self.levels[n + 1][t].algebra is algebra
            and not comp.rename
            and not algebra.shape_normal(comp.coeff).is_zero
            for (t, _), comp in self.components.get(n, {}).items()
        )

    def matrix(self, n: int, degree: int) -> DifferentialMatrix:
        """d^n from the degree-<=degree source basis, exact; the zero map
        where no component is given.

        Built once per (n, degree): levels and components are fixed after
        construction, so later calls return the same matrix.
        """
        key = (n, degree)
        if key not in self._matrices:
            self._matrices[key] = self._build_matrix(n, degree)
        return self._matrices[key]

    def _build_matrix(self, n: int, degree: int) -> DifferentialMatrix:
        """Per component, `pushed_images` walks the source exponents from
        the component's coefficient, so each column is the term map of one
        shape normal form.  That fixes the growth degree; the generic layer
        needs that bound and reduces the term maps afterwards, passing an
        exact target's through and emptying a zero algebra's."""
        source = self.level_basis(n, degree)
        sources, targets = self.levels.get(n, []), self.levels.get(n + 1, [])
        images: list[list[tuple[int, dict]]] = [[] for _ in source.entries]
        growth = degree
        # Into a level of zero algebras every image is 0 at every degree, so
        # none is made.  A zero summand of a mixed level still gets its
        # images: they set the growth, which truncates the other summands.
        components = self.components.get(n, {})
        if all(summand.algebra.is_zero_algebra for summand in targets):
            components = {}
        for (t, s), comp in components.items():
            cols = [(j, e) for j, (si, e) in enumerate(source.entries) if si == s]
            pushed = targets[t].algebra.pushed_images(
                sources[s].algebra.ambient, comp.rename, comp.coeff,
                [e for _, e in cols],
            )
            for (j, _), terms in zip(cols, pushed):
                if terms:
                    growth = max(growth, max(map(sum, terms)))
                    images[j].append((t, terms))
        target = self.level_basis(n + 1, growth)
        entries: list[SparseRow] = [{} for _ in range(target.dim)]
        for j, img in enumerate(images):
            for t, terms in img:
                nf = targets[t].algebra.generic_normal_form(terms, growth)
                for e, c in nf.items():
                    entries[target.index[(t, e)]][j] = c
        return DifferentialMatrix(source, target, entries)

    def embed(
        self, n: int, coords: SparseRow, frm: LevelBasis, into: LevelBasis
    ) -> SparseRow:
        """Re-express a sparse level-n vector on a larger-degree basis.  Its
        basis monomials are shape normal forms, so only the generic layer
        runs, on one term map per summand."""
        summands = self.levels[n]
        out: SparseRow = {}
        for si, t in frm.part_terms(coords).items():
            nf = summands[si].algebra.generic_normal_form(t, into.truncation)
            for e, c in nf.items():
                out[into.index[(si, e)]] = c
        return out


@dataclass
class CycleWitness:
    """A representative cycle, one element per summand of its level, and
    its coordinates on the level basis, which give its norm when read."""

    degree: int
    parts: dict[int, TateElement]
    coords: SparseRow
    basis: LevelBasis
    field: FieldSpec

    @property
    def norm(self) -> NormValue:
        weights = self.basis.weights
        return max_norm(
            scalar_norm(self.field, c) * weights[k]
            for k, c in self.coords.items()
        )


@dataclass
class HomologyReport:
    degree: int
    cycle_rank: int
    rank: int
    # The first cycle that is not a boundary, None when homology vanishes.
    witness: Optional[CycleWitness]
    # Rank of d^{n-1} from the degree-bounded basis: the boundary space the
    # cycles are tested against (0 where d^{n-1} is absent).
    boundary_rank: int

    @property
    def is_zero(self) -> bool:
        return self.rank == 0


def homology(cx: ChainComplex, n: int, degree: int) -> HomologyReport:
    """The cycles of level n, a basis of the kernel of d^n (all of the
    level where d^n is absent), modulo the image of d^(n-1), both on
    degree-bounded bases.

    Where `known_injective` certifies d^n, there are no cycles and d^n is
    not built; at the bottom of the complex, where d^(n-1) has no
    component, the report is then known without any basis or matrix."""
    injective = cx.known_injective(n)
    if injective and not cx.components.get(n - 1):
        return HomologyReport(n, 0, 0, None, 0)
    basis = cx.level_basis(n, degree)
    zs = [] if injective else kernel_basis(
        cx.matrix(n, degree).entries, basis.dim
    )
    min_ = cx.matrix(n - 1, degree)
    # The boundary space, as sparse row vectors over the level-n basis: the
    # columns of d^{n-1} (none where it is absent), read off its rows.  It is
    # eliminated even when there are no cycles, because the report carries
    # its rank.
    boundary_cols: list[SparseRow] = [{} for _ in range(min_.source.dim)]
    for i, row in enumerate(min_.entries):
        for j, v in row.items():
            boundary_cols[j][i] = v
    span_rows, span_pivots = sparse_rref(boundary_cols)
    if not span_pivots:
        # No boundaries: each kernel vector owns a distinct free column, so
        # the cycles are independent and every one is an obstruction.
        witness = (
            CycleWitness(n, basis.parts(zs[0]), zs[0], basis, cx.field)
            if zs else None
        )
        return HomologyReport(n, len(zs), len(zs), witness, 0)
    span = dict(zip(span_pivots, span_rows))
    # Each cycle's remainder modulo the span; the homology rank is the rank
    # of the remainders, and the witness is the first cycle that leaves one.
    remainders: list[SparseRow] = []
    witness = None
    for z in zs:
        # Where d^(n-1) made no image above the degree, its target basis is
        # the memoized cycles' basis and the cycle needs no re-expressing.
        zed = z if min_.target is basis else cx.embed(n, z, basis, min_.target)
        rem = reduce_against(zed, span)
        if rem:
            remainders.append(rem)
            if witness is None:
                witness = CycleWitness(n, basis.parts(z), z, basis, cx.field)
    quotient_rank = len(sparse_rref(remainders)[1]) if remainders else 0
    return HomologyReport(
        n, len(zs), quotient_rank, witness, len(span_pivots)
    )


def _composes_to_zero(
    outer: DifferentialMatrix, inner: DifferentialMatrix
) -> bool:
    """Whether outer * inner = 0, exactly: row i of the product is the
    combination of the rows of `inner` that row i of `outer` selects."""
    for row in outer.entries:
        composed: dict[int, Rational] = {}
        for k, a in row.items():
            for j, b in inner.entries[k].items():
                composed[j] = composed.get(j, 0) + a * b
        if any(composed.values()):
            return False
    return True


def strict_exactness(
    cx: ChainComplex, degree: int, positions: Sequence[int]
) -> list[tuple[HomologyReport, NormValue]]:
    """Exactness at the given degrees, with certified preimage-norm
    constants: one homology report per position, paired with its constant.

    Each differential gets at most one `NormAwareElimination` in a call,
    kept until it returns; none where it is absent or has no rows or no
    columns, and its rank is then 0.  Position n is exact by a rank count,
    with no cycle found, when d^(n-1) did not grow past the degree,
    d^n d^(n-1) = 0 on the two matrices, and rank d^(n-1) + rank d^n =
    dim L_n: the image of d^(n-1) then lies in the kernel of d^n and has
    its dimension.  Any other position is `homology`'s.

    At each position the constant C satisfies: every cycle that is a
    boundary has a preimage of norm <= C times the cycle norm.  C is the
    `normed.strict_epi_constant` of the incoming differential's elimination
    (the inverse of its smallest pivot score), which bounds all
    norm-minimal preimages at once; positions with no cycles, or a zero
    incoming differential, have C = 1.
    """
    eliminations: dict[int, Optional[NormAwareElimination]] = {}

    def elimination(k: int) -> Optional[NormAwareElimination]:
        if k not in eliminations:
            eliminations[k] = None
            if cx.components.get(k):
                m = cx.matrix(k, degree)
                if m.source.dim and m.target.dim:
                    eliminations[k] = NormAwareElimination(
                        cx.field, m.entries, m.target.weights,
                        m.source.weights,
                    )
        return eliminations[k]

    def rank(k: int) -> int:
        elim = elimination(k)
        return elim.rank if elim else 0

    pairs: list[tuple[HomologyReport, NormValue]] = []
    for n in positions:
        basis = cx.level_basis(n, degree)
        inner = cx.matrix(n - 1, degree)
        rep = None
        if inner.target is basis:
            r_in, r_out = rank(n - 1), rank(n)
            if r_in + r_out == basis.dim and _composes_to_zero(
                cx.matrix(n, degree), inner
            ):
                rep = HomologyReport(n, basis.dim - r_out, 0, None, r_in)
        if rep is None:
            rep = homology(cx, n, degree)
        constant = NormValue.one()
        if rep.cycle_rank and (elim := elimination(n - 1)):
            constant = strict_epi_constant(elim) or constant
        pairs.append((rep, constant))
    return pairs


# -- Koszul complexes and derived tensors ------------------------------------


def koszul_complex(
    algebra: AffinoidPresentation, relators: Sequence[TateElement]
) -> ChainComplex:
    """K(algebra; f_1..f_m): ranks C(m,k) in degrees -m..0.

    Summand labels are the index subsets; d(e_S) = sum over i in S of
    (-1)^(position of i in S) f_i e_{S minus i}.
    """
    m = len(relators)
    for f in relators:
        if f.ambient != algebra.ambient:
            raise ValueError("relator outside the ambient algebra")
    levels: dict[int, list[Summand]] = {}
    index_of: dict[int, dict[tuple, int]] = {}
    for k in range(m + 1):
        subsets = list(combinations(range(m), k))
        levels[-k] = [Summand(algebra, s) for s in subsets]
        index_of[-k] = {s: i for i, s in enumerate(subsets)}
    components: dict[int, dict[tuple[int, int], MapComponent]] = {}
    for k in range(1, m + 1):
        comps: dict[tuple[int, int], MapComponent] = {}
        for s_idx, summand in enumerate(levels[-k]):
            subset = summand.label
            for pos, i in enumerate(subset):
                smaller = tuple(x for x in subset if x != i)
                t_idx = index_of[-k + 1][smaller]
                coeff = relators[i] if pos % 2 == 0 else -relators[i]
                comps[(t_idx, s_idx)] = MapComponent(coeff)
        components[-k] = comps
    return ChainComplex(algebra.field, levels, components)


def koszul_h0(cx: ChainComplex) -> AffinoidPresentation:
    """H^0 of a `koszul_complex`: level 0 modulo what d^-1 multiplies by."""
    level = cx.levels[0][0].algebra
    relators = tuple(comp.coeff for comp in cx.components.get(-1, {}).values())
    return AffinoidPresentation(level.ambient, level.relations + relators)


def derived_tensor(
    module: AffinoidPresentation,
    base: AffinoidPresentation,
    target: AffinoidPresentation,
) -> tuple[ChainComplex, dict[str, str]]:
    """module (x)^L_base target, modeled on the target's own relators.

    The relators that present `target` over `base` are its relations past
    the base's: the localization relators of a chain, or the extra
    relations of a quotient.  The complex is the Koszul complex of the
    renamed relators over the pushout module (x)_base target without them,
    so that pushout is its H^0 (`koszul_h0`).  When the target adds no
    variable (a quotient), that level is `module` itself, whose ambient and
    relations it would repeat.  Returns the complex and the rename of the
    target's fresh variables.
    """
    ambient, relations, rename = pushout(base, module, target)
    n = len(module.relations)
    if ambient == module.ambient:
        # Its normal-form caches are reused, not rebuilt on an equal copy.
        level = module
    else:
        level = AffinoidPresentation(ambient, relations[:n])
    relators = [r for r in relations[n:] if not r.is_zero]
    return koszul_complex(level, relators), rename
