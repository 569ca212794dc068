"""Affinoid algebras as finite presentations over Tate algebras.

A presentation is an ambient polyradius plus finitely many relations.  The
reduction machinery normalizes relations into three layers:

* substitution relations a*v - h (h free of v, ||h/a|| <= radius(v)) are
  eliminated exactly, with no truncation loss;
* coordinate-inverse relations a*u*v - b rewrite the monomial pair u*v to the
  scalar b/a (Laurent normal form), again exactly;
* anything else is handled by degree-bounded row reduction of the element
  against all relation multiples of total degree <= D, with norm-aware
  pivoting; the result is a canonical representative, whose Gauss norm
  bounds the residue seminorm from above.

`normal_form` runs the first two layers (`shape_normal`) and then the third
(`generic_normal_form`), which a caller holding shape normal forms runs
alone, on their term maps exponent -> coefficient.  Every multiplication
map, a differential column or a relation multiple rel*x^m of the third
layer, is the term map of one step of a walk of the exponent lattice
(`pushed_images`): a product of shape normal forms contains no substituted
variable, so the walk applies only the Laurent layer, fused with each
product (`tate.multiply_terms`), and builds no element per step.

A localization A -> A_V is a presentation over A whose relations past A's
are its relators; its `LocalizationData` records only A and the
inequalities that cut V out of A's domain.

A presentation is recognized as the zero algebra when some reduced relation
has a dominant constant term: a*1 = (a - rel) + rel with ||a - rel|| < |a|
forces the residue seminorm of 1 below 1, hence (by multiplicativity of the
bound) to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from afnd.linalg import NormAwareElimination, SparseRow, reduce_against
from afnd.scalar import (
    FieldSpec, NormValue, Rational, as_entry, exact_div, max_norm, scalar_norm
)
from afnd.tate import (
    Exponent,
    PairRelations,
    Polyradius,
    TateElement,
    fresh_name,
    multiply_terms,
    walk_down,
)


@dataclass(frozen=True)
class BezoutCertificate:
    """Data (b, a_1..a_m) with b*g + sum a_i f_i = 1, verified exactly."""

    b: TateElement
    a: tuple[TateElement, ...]

    def verify(self, f: Sequence[TateElement], g: TateElement) -> bool:
        if len(f) != len(self.a):
            return False
        total = self.b * g
        for ai, fi in zip(self.a, f):
            total = total + ai * fi
        return total == TateElement.constant(g.ambient, 1)


@dataclass(frozen=True)
class DomainInequality:
    """|num| <= bound * |den| as a membership condition on the base algebra."""

    num: TateElement
    den: TateElement
    bound: NormValue


@dataclass(frozen=True)
class LocalizationData:
    """One localization step: its `base` and the `inequalities` of the
    domain it cuts out of the base's.

    The step's relators are its relations past the base's,
    `relations[len(base.relations):]`, one per fresh variable
    `ambient.names[base.ambient.nvars:]`, in order.  Each is T - f (a
    Weierstrass step) or g*S - 1 (a Laurent step), with T or S its fresh
    variable and f, g free of the step's fresh variables.  One-step Koszul
    resolutions of these shapes compose, so a localization chain is trusted
    as its own resolution, with no homology scan of its Koszul complex.
    """

    base: "AffinoidPresentation"
    inequalities: tuple[DomainInequality, ...]


class PresentationError(ValueError):
    pass


class AffinoidPresentation:
    """A = k{r^-1 x} / (relations), with layered normal forms."""

    def __init__(
        self,
        ambient: Polyradius,
        relations: Sequence[TateElement] = (),
        localization: LocalizationData | None = None,
    ):
        self.ambient = ambient
        self.relations = tuple(relations)
        for rel in self.relations:
            if rel.ambient != ambient:
                raise PresentationError("relation outside the ambient algebra")
        self.localization = localization
        self._generic_cache: dict[int, dict[int, SparseRow] | None] = {}
        self._basis_cache: dict[int, list[Exponent]] = {}
        # Shape monomials in grevlex order, each one's last nonzero index (-1
        # for 1) and position; layer d is shapes[starts[d]:starts[d+1]].
        zero = (0,) * ambient.nvars
        self._shapes: list[Exponent] = [zero]
        self._lasts = [-1]
        self._shape_col: dict[Exponent, int] = {zero: 0}
        self._layer_starts = [0, 1]
        self._shape_cache: dict[
            int, tuple[list[Exponent], dict[Exponent, int]]
        ] = {}
        # pushed_images results per (source ambient, rename, coeff).
        self._pushed: dict[tuple, tuple[dict, list[dict]]] = {}
        self._normalize()

    @property
    def field(self) -> FieldSpec:
        return self.ambient.field

    # -- normalization -----------------------------------------------------

    def _normalize(self) -> None:
        self.substitutions: dict[str, TateElement] = {}
        self.laurent_pairs: dict[tuple[str, str], Rational] = {}
        remaining = self._exact_layers()
        self.is_zero_algebra = remaining is None
        # Layer 3: everything else.  A relation given twice makes a Macaulay
        # row its twin clears to zero, so each is kept once.
        self.generic_relations: list[TateElement] = list(dict.fromkeys(
            r for r in map(self.shape_normal, remaining or ()) if not r.is_zero
        ))

    def _exact_layers(self) -> list[TateElement] | None:
        """Install the substitution and Laurent layers; returns the
        relations left for the generic layer, or None when the presentation
        is recognized as the zero algebra."""
        ambient = self.ambient
        rels = [r for r in self.relations if not r.is_zero]
        while True:
            # Layer 1: substitution relations, eliminating one variable each.
            changed = True
            while changed:
                changed = False
                for ri, rel in enumerate(rels):
                    hit = self._substitution_candidate(rel)
                    if hit is None:
                        continue
                    var, h = hit
                    del rels[ri]
                    self._register_substitution(var, h)
                    rels = [r.substitute(var, h) for r in rels]
                    rels = [r for r in rels if not r.is_zero]
                    changed = True
                    break

            # Zero-algebra detection: a relation with a dominant constant term.
            for rel in rels:
                c = rel.constant_term()
                if c != 0:
                    tail = rel - TateElement.constant(ambient, c)
                    if tail.gauss_norm() < scalar_norm(self.field, c):
                        return None

            # Layer 2: coordinate-inverse (Laurent) pairs u*v -> b/a.
            self.laurent_pairs = {}
            remaining = []
            paired: set[str] = set(self.substitutions)
            for rel in rels:
                hit = self._pair_relation(rel)
                if hit is None or not paired.isdisjoint(hit[:2]):
                    remaining.append(rel)
                    continue
                u, v, q = hit
                self.laurent_pairs[(u, v)] = q
                paired.update((u, v))

            # Relations that share a factor up to a scalar identify two
            # variables exactly: from g*w = c1 and (t*g)*v = c2 one gets
            # v = (c2/(t*c1))*w.  A Laurent pair u*w = q is the case g = u,
            # so a pair relation a*u*v = b through it gives
            # v = (b/(a*q))*w.  Register it as a substitution and
            # renormalize from scratch.
            action = self._shared_factor_identification(remaining)
            if action == "restart":
                rels = [r for r in self.relations if not r.is_zero]
                for var, h in self.substitutions.items():
                    rels = [r.substitute(var, h) for r in rels]
                rels = [r for r in rels if not r.is_zero]
                continue
            if action == "zero":
                return None
            return remaining

    def _substitution_candidate(
        self, rel: TateElement
    ) -> tuple[str, TateElement] | None:
        ambient = self.ambient
        # Prefer eliminating later variables (localization variables are
        # appended last); first admissible candidate wins.
        for i in reversed(range(ambient.nvars)):
            exponent = tuple(1 if k == i else 0 for k in range(ambient.nvars))
            a = rel.terms.get(exponent, 0)
            if a == 0:
                continue
            name = ambient.names[i]
            h = (TateElement.monomial(ambient, exponent, a) - rel).scale(
                exact_div(1, a)
            )
            if h.uses(name):
                continue
            if h.gauss_norm() > ambient.radii[i]:
                continue
            return name, h
        return None

    def _pair_relation(self, rel: TateElement) -> tuple[str, str, Rational] | None:
        """Read rel as a*u*v + c with c != 0 (u, v distinct): (u, v, -c/a)."""
        if len(rel.terms) != 2:
            return None
        const = rel.constant_term()
        if const == 0:
            return None
        [(exponent, a)] = [
            (e, c) for e, c in rel.terms.items() if sum(e) > 0
        ]
        support = [i for i, k in enumerate(exponent) if k]
        if len(support) != 2 or any(exponent[i] != 1 for i in support):
            return None
        names = self.ambient.names
        return names[support[0]], names[support[1]], exact_div(-const, a)

    def _register_substitution(self, var: str, h: TateElement) -> None:
        self.substitutions = {
            v: e.substitute(var, h) for v, e in self.substitutions.items()
        }
        self.substitutions[var] = h

    def _try_identify(self, v: str, w: str, coeff: Rational) -> bool:
        """Install v = coeff*w (or the reverse), whichever respects radii."""
        h = TateElement.variable(self.ambient, w).scale(coeff)
        if h.gauss_norm() <= self.ambient.radius_of(v):
            self._register_substitution(v, h)
            return True
        h = TateElement.variable(self.ambient, v).scale(exact_div(1, coeff))
        if h.gauss_norm() <= self.ambient.radius_of(w):
            self._register_substitution(w, h)
            return True
        return False

    def _linear_decompositions(
        self, rel: TateElement
    ) -> list[tuple[str, TateElement, Rational]]:
        """Ways to read rel as g*v - c (v of exponent 1 throughout, c != 0)."""
        const = rel.constant_term()
        if const == 0:
            return []
        nonconst = [(e, cf) for e, cf in rel.terms.items() if sum(e) > 0]
        if not nonconst:
            return []
        out = []
        for i in range(self.ambient.nvars):
            if all(e[i] == 1 for e, _ in nonconst):
                g_terms = {}
                for e, cf in nonconst:
                    ge = list(e)
                    ge[i] -= 1
                    g_terms[tuple(ge)] = cf
                g = TateElement(self.ambient, g_terms)
                if not g.uses(self.ambient.names[i]):
                    out.append((self.ambient.names[i], g, -const))
        return out

    def _shared_factor_identification(
        self, remaining: list[TateElement]
    ) -> str | None:
        """Identify variables cut out by proportional factors, among the
        Laurent pair relations and `remaining`.

        From g*v1 = c1 and (t*g)*v2 = c2 one gets c1*t*v2 = c2*v1 exactly
        (multiply the first by t*v2 and the second by v1), so v2 is a scalar
        multiple of v1 whenever t is a scalar, and the second relation is
        redundant or contradictory when v1 = v2.  Pairs share no variable,
        so two pair relations never match and the one dropped is always in
        `remaining`.
        """
        pairs = [
            TateElement.variable(self.ambient, u)
            * TateElement.variable(self.ambient, w)
            - TateElement.constant(self.ambient, q)
            for (u, w), q in self.laurent_pairs.items()
        ]
        rels = pairs + remaining
        decomps = [self._linear_decompositions(r) for r in rels]
        for rj in range(len(rels)):
            for ri in range(rj):
                for v1, g1, c1 in decomps[ri]:
                    for v2, g2, c2 in decomps[rj]:
                        lam = self._proportionality(g1, g2)
                        if lam is None:
                            continue
                        if v1 == v2:
                            if c2 == lam * c1:
                                del remaining[rj - len(pairs)]
                                return self._shared_factor_identification(
                                    remaining
                                )
                            return "zero"
                        if self._try_identify(v2, v1, exact_div(c2, lam * c1)):
                            return "restart"
        return None

    @staticmethod
    def _proportionality(g1: TateElement, g2: TateElement) -> Rational | None:
        """The scalar t with g2 = t*g1, if one exists."""
        if g1.is_zero or set(g1.terms) != set(g2.terms):
            return None
        e0 = next(iter(g1.terms))
        lam = exact_div(g2.terms[e0], g1.terms[e0])
        for e, cf in g1.terms.items():
            if g2.terms[e] != lam * cf:
                return None
        return lam

    def shape_normal(self, w: TateElement) -> TateElement:
        """Apply the substitution and Laurent layers exactly: the first pass
        of `normal_form`, which never truncates."""
        out = w
        for var, h in self.substitutions.items():
            if out.uses(var):
                out = out.substitute(var, h)
        return out.mul_cancel(
            TateElement.constant(self.ambient, 1), self._pair_relations
        )

    @cached_property
    def _pair_relations(self) -> PairRelations:
        return PairRelations(self.ambient, self.laurent_pairs)

    def pushed_images(
        self,
        ambient: Polyradius,
        rename: Mapping[str, str] | None,
        coeff: TateElement,
        exponents: Sequence[Exponent],
    ) -> list[dict[Exponent, Rational]]:
        """The terms of `shape_normal(coeff * push(x^e))` for each e of
        `exponents`, where x^e is a monomial of `ambient`, pushed into this
        ambient along `rename`, and `coeff` is an element of this ambient.

        Pushing along a rename and shape normalization are multiplicative,
        so the walk starts at the terms of `shape_normal(coeff)` and the
        image of x^e is the image of its lower neighbour x^(e - eps_i)
        (`walk_down`) times the image of x_i.  Both factors are shape normal
        forms, so their product contains no substituted variable and only
        the Laurent layer is applied, fused with the product
        (`multiply_terms`); no element is built per image.  Images are kept
        per (ambient, rename, coeff), so an exponent costs one product the
        first time any caller asks for it.  A grevlex-ordered basis that is
        closed under lowering one coordinate (a shape basis) always finds
        its lower neighbour known.  Callers must not mutate the term maps.
        """
        rename = rename or {}
        key = (ambient, tuple(sorted(rename.items())), coeff)
        if key not in self._pushed:
            gens = [
                self.shape_normal(
                    TateElement.variable(self.ambient, rename.get(name, name))
                ).terms
                for name in ambient.names
            ]
            seed = self.shape_normal(coeff).terms
            self._pushed[key] = ({(0,) * ambient.nvars: seed}, gens)
        images, gens = self._pushed[key]
        pairs = self._pair_relations
        out = []
        for exponent in exponents:
            img, steps = walk_down(exponent, images)
            for e, i in steps:
                img = images[e] = multiply_terms(img, gens[i], pairs)
            out.append(img)
        return out

    # -- bases and reduction ------------------------------------------------

    def free_variable_indices(self) -> list[int]:
        return [
            i
            for i, n in enumerate(self.ambient.names)
            if n not in self.substitutions
        ]

    def _shape_basis(
        self, degree: int
    ) -> tuple[list[Exponent], dict[Exponent, int]]:
        """The shape monomials of degree <= D (those surviving substitution
        and Laurent normalization) and their column index map.

        Both depend only on the substitution and Laurent layers, which are
        fixed once `_normalize` has run.  Shape monomials are closed under
        lowering one coordinate, so layer d is layer d-1 with one free
        variable i raised, at or after the last nonzero one, less what the
        Laurent partner of i rewrites.  Grevlex puts a later last nonzero
        index first, so taking i from the last free variable down, each
        time over the tail of layer d-1 whose last index is <= i, builds
        layer d already sorted, and each basis is a prefix of the next.  The
        map covers every layer built so far: a monomial of degree <= D is in
        it exactly when it is in the degree-D basis.  Callers must not
        mutate the returned list or map.
        """
        cached = self._shape_cache.get(degree)
        if cached is not None:
            return cached
        partner = {}
        for u, v in self.laurent_pairs:
            iu, iv = self.ambient.index(u), self.ambient.index(v)
            partner[iu], partner[iv] = iv, iu
        shapes, lasts, starts = self._shapes, self._lasts, self._layer_starts
        while len(starts) <= degree + 1:
            lo, end = starts[-2], starts[-1]
            for i in reversed(self.free_variable_indices()):
                while lo < end and lasts[lo] > i:
                    lo += 1
                p = partner.get(i)
                for f in shapes[lo:end]:
                    if p is None or not f[p]:
                        e = f[:i] + (f[i] + 1,) + f[i + 1:]
                        self._shape_col[e] = len(shapes)
                        shapes.append(e)
                        lasts.append(i)
            starts.append(len(shapes))
        cached = self._shape_cache[degree] = (
            shapes[:starts[degree + 1]], self._shape_col
        )
        return cached

    def _generic_elimination(
        self, degree: int
    ) -> dict[int, SparseRow] | None:
        """The relation rows at degree <= D, Jordan-reduced with unit pivots,
        keyed by pivot column in the order the pivots were taken; pivots are
        chosen norm-aware, so the non-pivot shape monomials form the
        normal-form basis."""
        if degree in self._generic_cache:
            return self._generic_cache[degree]
        if not self.generic_relations:
            self._generic_cache[degree] = None
            return None
        shape_basis, col_of = self._shape_basis(degree)
        weights = [self.ambient.monomial_weight(e) for e in shape_basis]
        rows = []
        for rel in self.generic_relations:
            rdeg = rel.total_degree()
            if rdeg > degree:
                continue
            # Every term of a product of shape normal forms is a shape
            # monomial, of degree <= D here.
            for prod in self.pushed_images(
                self.ambient, None, rel, self._shape_basis(degree - rdeg)[0]
            ):
                rows.append({col_of[e]: c for e, c in prod.items()})
        if not rows:
            self._generic_cache[degree] = None
            return None
        row_weights = [NormValue.one()] * len(rows)
        elim = NormAwareElimination(self.field, rows, row_weights, weights)
        out = self._generic_cache[degree] = {
            j: elim.srows[i] for i, j in elim.pivots
        }
        return out

    def monomial_basis(self, degree: int) -> list[Exponent]:
        """Canonical normal-form monomials of total degree <= degree."""
        if self.is_zero_algebra:
            return []
        if degree in self._basis_cache:
            return self._basis_cache[degree]
        shape_basis = self._shape_basis(degree)[0]
        generic = self._generic_elimination(degree)
        if generic is not None:
            basis = [e for j, e in enumerate(shape_basis) if j not in generic]
        else:
            basis = shape_basis
        self._basis_cache[degree] = basis
        return basis

    def normal_form(self, w: TateElement, degree: int) -> TateElement:
        """The canonical representative of w on the degree-<=degree basis."""
        if w.ambient != self.ambient:
            raise PresentationError("element outside the ambient algebra")
        shaped = self.shape_normal(w)
        terms = self.generic_normal_form(shaped.terms, degree)
        if terms is shaped.terms:
            return shaped
        return TateElement(self.ambient, terms)

    def generic_normal_form(
        self, shaped: Mapping[Exponent, Rational], degree: int
    ) -> Mapping[Exponent, Rational]:
        """The second pass of `normal_form`, on the term map of a shape normal
        form: its remainder modulo the relation rows of degree <= degree, or
        `shaped` itself when there are none.  Builds no element."""
        if self.is_zero_algebra:
            return {}
        generic = self._generic_elimination(degree)
        if generic is None or not shaped:
            return shaped
        d = max(map(sum, shaped))
        if d > degree:
            raise PresentationError(f"degree {d} exceeds truncation {degree}")
        shape_basis, col_of = self._shape_basis(degree)
        # The relation rows are Jordan-reduced, so each subtraction clears
        # one pivot coordinate and stays inside degree <= D.
        coords = reduce_against(
            {col_of[e]: c for e, c in shaped.items()}, generic
        )
        return {shape_basis[j]: as_entry(coords[j]) for j in sorted(coords)}

    # -- structure maps ------------------------------------------------------

    def is_over(self, base: "AffinoidPresentation") -> bool:
        """True when this presentation visibly extends `base`."""
        n = base.ambient.nvars
        if self.ambient.names[:n] != base.ambient.names:
            return False
        if self.ambient.radii[:n] != base.ambient.radii:
            return False
        if self.ambient.field != base.ambient.field:
            return False
        mapped = tuple(
            rel.in_ambient(self.ambient) for rel in base.relations
        )
        return self.relations[: len(mapped)] == mapped

    def __repr__(self) -> str:
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ambient}/({rels})"


# -- constructors ------------------------------------------------------------


def free_affinoid(ambient: Polyradius) -> AffinoidPresentation:
    return AffinoidPresentation(ambient)


def quotient(
    base: AffinoidPresentation, extra_relations: Sequence[TateElement]
) -> AffinoidPresentation:
    """The cyclic module / quotient algebra A/(extra) over A."""
    rels = base.relations + tuple(
        r.in_ambient(base.ambient) for r in extra_relations
    )
    return AffinoidPresentation(base.ambient, rels)


def _append_localization(
    base: AffinoidPresentation,
    bounds: Sequence[tuple[TateElement, NormValue]],
    inverts: Sequence[tuple[TateElement, NormValue]],
    inequalities: Sequence[DomainInequality],
) -> AffinoidPresentation:
    """Extend the ambient by one fresh variable per bound, then one per
    inversion, and install the relators: T - f for a bound (f, r), with T
    at radius r, and g*S - 1 for an inversion (g, q), with S at radius q."""
    names = list(base.ambient.names)
    for _ in range(len(bounds) + len(inverts)):
        names.append(fresh_name("T", names))
    new_names = names[base.ambient.nvars:]
    ambient = base.ambient.extend(
        new_names, [r for _, r in bounds] + [q for _, q in inverts]
    )
    fresh = [TateElement.variable(ambient, name) for name in new_names]
    one = TateElement.constant(ambient, 1)
    relations = [rel.in_ambient(ambient) for rel in base.relations]
    relations += [t - f.in_ambient(ambient) for t, (f, _) in zip(fresh, bounds)]
    relations += [
        g.in_ambient(ambient) * s - one
        for s, (g, _) in zip(fresh[len(bounds):], inverts)
    ]
    data = LocalizationData(base, tuple(inequalities))
    return AffinoidPresentation(ambient, relations, localization=data)


def weierstrass_localization(
    base: AffinoidPresentation,
    f: Sequence[TateElement],
    r: Sequence[NormValue],
) -> AffinoidPresentation:
    """A{T/r}/(T_i - f_i): the subdomain |f_i| <= r_i."""
    if len(f) != len(r):
        raise PresentationError("one radius per function required")
    bounds = list(zip(f, r))
    one = TateElement.constant(base.ambient, 1)
    ineqs = [DomainInequality(fi, one, ri) for fi, ri in bounds]
    return _append_localization(base, bounds, (), ineqs)


def laurent_localization(
    base: AffinoidPresentation,
    f: Sequence[TateElement] = (),
    f_radii: Sequence[NormValue] = (),
    g: Sequence[TateElement] = (),
    g_radii: Sequence[NormValue] = (),
) -> AffinoidPresentation:
    """Laurent localization: |f_i| <= p_i and |g_j| >= 1/q_j.

    The g_j come with the norms q_j of their inverting variables S_j
    (relations g_j S_j - 1 at radius q_j).
    """
    one = TateElement.constant(base.ambient, 1)
    bounds = list(zip(f, f_radii))
    inverts = list(zip(g, g_radii))
    ineqs = [DomainInequality(fi, one, ri) for fi, ri in bounds] + [
        DomainInequality(one, gj, qj) for gj, qj in inverts
    ]
    return _append_localization(base, bounds, inverts, ineqs)


def rational_localization(
    base: AffinoidPresentation,
    f: Sequence[TateElement],
    g: TateElement,
    r: Sequence[NormValue],
    certificate: BezoutCertificate | None = None,
) -> AffinoidPresentation:
    """The rational subdomain |f_i| <= r_i |g| of A, for m >= 1 functions.

    With g = 1 this is the Weierstrass domain A{T/r}/(T_i - f_i).  Any
    other g needs a Bezout certificate b*g + sum a_i f_i = 1, verified
    exactly.  It bounds g below on the domain: the ultrametric inequality
    gives 1 <= max(||b||, max_i ||a_i|| r_i) |g| =: M |g|, with Gauss norms.
    So the domain factors as a Laurent step, g*S - 1 with S at radius M,
    followed by a Weierstrass step, T_i - f_i*S with T_i at radius r_i
    (BGR 7.2.3-7.2.4).  Every relator then has one of the two shapes whose
    resolutions compose.
    """
    if not f or len(f) != len(r):
        raise PresentationError(
            "one radius per function required, and at least one function"
        )
    if g == TateElement.constant(base.ambient, 1):
        return weierstrass_localization(base, f, r)
    if certificate is None:
        raise PresentationError(
            "rational localization needs g = 1 or a Bezout certificate"
        )
    if not certificate.verify(f, g):
        raise PresentationError("Bezout certificate does not verify")
    bound = max_norm(
        [certificate.b.gauss_norm()]
        + [ai.gauss_norm() * ri for ai, ri in zip(certificate.a, r)]
    )
    step = laurent_localization(base, g=[g], g_radii=[bound])
    s = TateElement.variable(step.ambient, step.ambient.names[-1])
    bounds = [(fi.in_ambient(step.ambient) * s, ri) for fi, ri in zip(f, r)]
    ineqs = [DomainInequality(fi, g, ri) for fi, ri in zip(f, r)]
    return _append_localization(step, bounds, (), ineqs)


def pushout(
    a: AffinoidPresentation,
    b: AffinoidPresentation,
    c: AffinoidPresentation,
) -> tuple[Polyradius, list[TateElement], dict[str, str]]:
    """The ambient and relations of the pushout B (x)_A C, not yet a
    presentation, and C's rename map.

    Its variables are B's, then C's past A's in their order, each primed
    until it is fresh; the rename map lists the primed ones.
    """
    if not b.is_over(a) or not c.is_over(a):
        raise PresentationError("both factors must be presented over the base")
    n = a.ambient.nvars
    names = list(b.ambient.names)
    radii = list(b.ambient.radii)
    rename: dict[str, str] = {}
    for name, radius in zip(c.ambient.names[n:], c.ambient.radii[n:]):
        new = fresh_name(name, names)
        if new != name:
            rename[name] = new
        names.append(new)
        radii.append(radius)
    ambient = Polyradius(a.ambient.field, tuple(names), tuple(radii))
    relations = [rel.in_ambient(ambient) for rel in b.relations]
    for rel in c.relations[len(a.relations):]:
        relations.append(rel.in_ambient(ambient, rename))
    return ambient, relations, rename


def tensor_over(
    a: AffinoidPresentation,
    b: AffinoidPresentation,
    c: AffinoidPresentation,
) -> tuple[AffinoidPresentation, dict[str, str]]:
    """The `pushout` presentation of B (x)_A C, and C's rename map."""
    ambient, relations, rename = pushout(a, b, c)
    return AffinoidPresentation(ambient, relations), rename


def localization_path(
    target: AffinoidPresentation, base: AffinoidPresentation | None = None
) -> list[AffinoidPresentation] | None:
    """`target`, then the base of each localization step in turn.

    The walk ends at `base`, or, without one, at the root: the first algebra
    that is not a localization.  None when `base` is not on the chain.
    """
    path = [target]
    while path[-1] is not base:
        loc = path[-1].localization
        if loc is None:
            return path if base is None else None
        path.append(loc.base)
    return path
