"""Chain complexes of affinoid summands: differentials, homology, Koszul."""

import itertools
from fractions import Fraction

import pytest

from afnd.affinoid import free_affinoid, quotient, weierstrass_localization
from afnd.cech import CoverData, build_complex
from afnd.cli import parse_scenario, run_scenario
from afnd.complexes import (
    ChainComplex,
    MapComponent,
    Summand,
    derived_tensor,
    homology,
    koszul_complex,
    strict_exactness,
)
from afnd.homotopy import _resolution_gate
from afnd.linalg import kernel_basis, reduce_against
from afnd.scalar import FieldSpec, NormValue, exact_div
from afnd.tate import Polyradius, TateElement, grevlex_key, parse_element
from helpers import fold_complex, of_rational, verify_d_squared
from test_homotopy import (
    SCENARIOS, fold_maps, hand_maps, resolvable, scenario_pairs
)

Q5 = FieldSpec.padic(5)


def disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


def two_term(algebra, f):
    """[algebra --(f)--> algebra] in degrees -1 and 0."""
    levels = {
        0: [Summand(algebra, "tgt")],
        -1: [Summand(algebra, "src")],
    }
    comps = {-1: {(0, 0): MapComponent(f, {})}}
    return ChainComplex(Q5, levels, comps)


def test_matrix_and_d_squared():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    assert verify_d_squared(cx, 6)
    m = cx.matrix(-1, 4)
    # Multiplication by x is injective on polynomials.
    assert m.source.dim == 5
    columns = [
        [row.get(j, Fraction(0)) for row in m.entries]
        for j in range(m.source.dim)
    ]
    assert all(any(col) for col in columns)


def test_level_bases_are_built_once():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    m = cx.matrix(-1, 4)
    assert cx.level_basis(-1, 4) is m.source
    assert cx.level_basis(0, m.target.truncation) is m.target
    assert all(m.source.index[k] == j for j, k in enumerate(m.source.entries))


def test_homology_multiplication_by_variable():
    A = free_affinoid(disc())
    cx = two_term(A, parse_element("x", A.ambient))
    h1 = homology(cx, -1, 8)
    assert h1.is_zero
    h0 = homology(cx, 0, 8)
    # Cokernel of x is the constants: rank 1 with witness 1.
    assert h0.rank == 1
    assert str(h0.witness.parts[0]) == "1"


def test_homology_zero_divisor():
    A = free_affinoid(disc())
    B = quotient(A, [parse_element("x^2", A.ambient)])
    cx = two_term(B, parse_element("x", B.ambient))
    h1 = homology(cx, -1, 8)
    # x * x = 0 in B, so x is a nonzero cycle in degree -1.
    assert not h1.is_zero
    assert h1.rank == 1


def test_koszul_one_variable():
    A = free_affinoid(disc())
    cx = koszul_complex(A, [parse_element("x", A.ambient)])
    assert verify_d_squared(cx, 8)
    assert homology(cx, -1, 8).is_zero
    assert homology(cx, 0, 8).rank == 1


def test_koszul_regular_pair():
    A = free_affinoid(disc("x", "y"))
    fs = [parse_element("x", A.ambient), parse_element("y", A.ambient)]
    cx = koszul_complex(A, fs)
    assert verify_d_squared(cx, 6)
    assert homology(cx, -1, 6).is_zero
    assert homology(cx, -2, 6).is_zero
    assert homology(cx, 0, 6).rank == 1


def test_strict_exactness_constant():
    A = free_affinoid(disc())
    # [A --(5)--> A]: every degree-0 cycle is a boundary, but preimages
    # cost a factor of 5 in norm.
    cx = two_term(A, parse_element("5", A.ambient))
    [w] = strict_exactness(cx, 8, [0])
    assert w.exact
    assert w.constant == of_rational(5)
    # At an injectivity position with no cycles the constant is one.
    [winj] = strict_exactness(cx, 8, [-1])
    assert winj.exact
    assert winj.constant == NormValue.one()


def resolves(base, target, degree):
    """Whether the target's relators resolve it over the base: the Koszul
    complex of base (x)^L_base target, built through its pushout, has no
    negative homology at the truncation degree."""
    cx = derived_tensor(base, base, target)[0]
    return all(homology(cx, n, degree).is_zero for n in cx.degrees() if n < 0)


def test_resolution_of_localization():
    A = free_affinoid(disc())
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    assert resolves(A, V, 8)


def test_quotient_resolution_validity_gate():
    """The quotient gate of the verdicts scans the Koszul complex of the
    extra relations over the base itself, with no pushout, and agrees with
    the derived tensor's."""
    A = free_affinoid(disc())
    x = parse_element("x", A.ambient)
    B = quotient(A, [x * x])
    cases = [
        (A, quotient(A, [x]), True),
        (B, quotient(B, [x]), False),
        # x^2, x^3 is not a regular sequence.
        (A, quotient(A, [x * x, x * x * x]), False),
    ]
    for base, target, expected in cases:
        assert resolves(base, target, 8) is expected
        assert (_resolution_gate(base, target, 8)[0] is None) is expected


def test_derived_tensor_regular_module():
    A = free_affinoid(disc())
    M = quotient(A, [parse_element("x - 1", A.ambient)])
    cx = derived_tensor(M, A, quotient(A, [parse_element("x", A.ambient)]))[0]
    # x and x - 1 are coprime: the derived tensor vanishes entirely.
    assert homology(cx, -1, 8).is_zero
    assert homology(cx, 0, 8).rank == 0


def test_derived_tensor_self_intersection():
    A = free_affinoid(disc())
    M = quotient(A, [parse_element("x", A.ambient)])
    cx = derived_tensor(M, A, M)[0]
    # Tor_0 = Tor_1 = k for the fiber against itself.
    assert homology(cx, 0, 8).rank == 1
    assert homology(cx, -1, 8).rank == 1


# -- assembly against the element-by-element oracle --------------------------


def reference_matrix(cx, n, degree):
    """d^n assembled one source monomial at a time, as it was before columns
    were walked: push the monomial into the target, multiply by the
    coefficient, shape-normalize, and reduce at the growth degree G.

    Returns G, the target basis entries and {(target entry, source entry):
    coefficient}.
    """
    sources, targets = cx.levels[n], cx.levels[n + 1]
    images = []
    growth = degree
    for si, summand in enumerate(sources):
        for e in summand.algebra.monomial_basis(degree):
            mono = TateElement.monomial(summand.algebra.ambient, e)
            for (t, s), comp in cx.components[n].items():
                if s != si:
                    continue
                alg = targets[t].algebra
                val = alg.shape_normal(
                    comp.coeff * mono.in_ambient(alg.ambient, comp.rename)
                )
                growth = max(growth, val.total_degree())
                images.append(((si, e), t, val))
    rows = [
        (t, e)
        for t, summand in enumerate(targets)
        for e in summand.algebra.monomial_basis(growth)
    ]
    entries = {}
    for col, t, val in images:
        nf = targets[t].algebra.generic_normal_form(val.terms, growth)
        for e, c in nf.items():
            entries[((t, e), col)] = c
    return growth, rows, entries


def oracle_complexes():
    """(label, complex) for every Koszul and derived-tensor complex, fold map
    and Cech complex that the bundled scenarios' algebras give, plus
    complexes into a zero algebra."""
    pairs = list(scenario_pairs())
    over: dict[int, list] = {}  # base -> the base and what is over it
    for _, base, piece in pairs:
        over.setdefault(id(base), [base]).append(piece)
    for label, base, piece in pairs:
        for k, (big, target, rename) in enumerate(fold_maps(base, piece)):
            yield f"{label} fold {k}", fold_complex(big, target, rename)
        if not resolvable(base, piece):
            continue
        for m, module in enumerate(over[id(base)]):
            # Module 0 is the base: the Koszul complex of piece's relators.
            cx = derived_tensor(module, base, piece)[0]
            yield f"{label} derived {m}", cx
    for base, *rest in over.values():
        pieces = tuple(p for p in rest if p.localization is not None)
        if len(pieces) > 1:
            yield f"cech {base!r}", build_complex(CoverData(base, pieces), len(pieces))
    A = free_affinoid(disc())
    Z = quotient(A, [parse_element("1 + 5*x", A.ambient)])
    assert Z.is_zero_algebra
    one = TateElement.constant(Z.ambient, 1)
    yield "into zero", ChainComplex(
        Q5,
        {0: [Summand(A, "A")], 1: [Summand(Z, "Z")]},
        {0: {(0, 0): MapComponent(one)}},
    )
    X = quotient(A, [parse_element("x", A.ambient)])
    yield "zero derived", derived_tensor(Z, A, X)[0]


@pytest.mark.parametrize("degree", [6, 12])
def test_matrices_match_element_by_element_assembly(degree):
    labels = []
    for label, cx in oracle_complexes():
        labels.append(label)
        for n in sorted(cx.components):
            m = cx.matrix(n, degree)
            got = {
                (m.target.entries[i], m.source.entries[j]): c
                for i, row in enumerate(m.entries)
                for j, c in row.items()
            }
            growth, rows, entries = reference_matrix(cx, n, degree)
            assert m.target.truncation == growth, (label, n)
            assert m.target.entries == rows, (label, n)
            assert got == entries, (label, n)
    assert len(labels) >= 60
    assert any("cech" in label for label in labels)


def test_weights_and_shape_bases_match_brute_force():
    """Walked weights are products of radius powers.  Layered shape bases
    hold every free-variable monomial that no Laurent pair rewrites, in
    grevlex order, and each is a prefix of the next."""
    algebras = {}
    for _, cx in oracle_complexes():
        for summands in cx.levels.values():
            for s in summands:
                algebras[id(s.algebra)] = s.algebra
    assert len(algebras) >= 20
    for alg in algebras.values():
        amb = alg.ambient
        free = alg.free_variable_indices()
        pairs = [(amb.index(u), amb.index(v)) for u, v in alg.laurent_pairs]
        bases = {}
        for degree in (12, 5, 6):
            brute = []
            for ks in itertools.product(range(degree + 1), repeat=len(free)):
                e = [0] * amb.nvars
                for i, k in zip(free, ks):
                    e[i] = k
                if sum(e) <= degree and all(e[u] == 0 or e[v] == 0 for u, v in pairs):
                    brute.append(tuple(e))
            brute.sort(key=grevlex_key)
            basis, col_of = alg._shape_basis(degree)
            assert basis == brute
            assert all(col_of[e] == j for j, e in enumerate(basis))
            bases[degree] = basis
        assert bases[12][: len(bases[6])] == bases[6]
        # Highest degree first, so that the first weights walk far down.
        for e in reversed(bases[12]):
            expected = NormValue.one()
            for r, k in zip(amb.radii, e):
                expected = expected * r**k
            assert amb.monomial_weight(e) == expected


def test_homology_reads_no_weights(monkeypatch):
    """Ranks and witness cycles print no norm, so homology computes no
    monomial weight; a witness's norm computes them when read."""
    algebras = parse_scenario(
        (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    ).algebras
    base = algebras["A"]
    complexes = []
    for name in ("V1", "V2"):
        piece = algebras[name]
        complexes.append(derived_tensor(piece, base, piece)[0])
        complexes += [fold_complex(*f) for f in fold_maps(base, piece)]
    calls = []
    weight = Polyradius.monomial_weight

    def counted(self, exponent):
        calls.append(exponent)
        return weight(self, exponent)

    monkeypatch.setattr(Polyradius, "monomial_weight", counted)
    reports = [
        homology(cx, n, 8) for cx in complexes for n in cx.degrees()
    ]
    assert calls == []
    # H^0 of each derived self-tensor is the piece itself.
    witnesses = [r.witness for r in reports if r.witness is not None]
    assert len(witnesses) == 2
    assert [str(w.norm) for w in witnesses] == ["1", "1"]
    assert calls


def count_element_builds(monkeypatch):
    """[calls of `TateElement.__init__`, calls of `TateElement._trusted`],
    counted from now on; reset it by slice assignment."""
    counts = [0, 0]
    init, trusted = TateElement.__init__, TateElement._trusted.__func__

    def counting_init(self, *args):
        counts[0] += 1
        init(self, *args)

    def counting_trusted(cls, *args):
        counts[1] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(TateElement, "__init__", counting_init)
    monkeypatch.setattr(TateElement, "_trusted", classmethod(counting_trusted))
    return counts


def test_assembly_builds_no_element_per_column(monkeypatch):
    """Differential columns, generic-layer reductions and re-expressed
    cycles are term maps, so the elements that assembly builds do not grow
    with the number of columns.  Each run starts from a fresh derived
    tensor, whose presentations have walked nothing yet."""
    disk = parse_scenario(
        (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    ).algebras
    generic = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    dims, embedded = [], []
    embed = ChainComplex.embed

    def counting_embed(self, *args):
        embedded[-1] += 1
        return embed(self, *args)

    monkeypatch.setattr(ChainComplex, "embed", counting_embed)

    def hoepi_d(degree):
        # d^-1 of the derived tensor behind `hoepi A V2`: exact layers only.
        V2 = disk["V2"]
        cx = derived_tensor(V2, disk["A"], V2)[0]
        dims.append(cx.matrix(-1, degree).source.dim)

    def transversal_h0(degree):
        # H^0 of the derived tensor behind `transversal B N V`: d^-1 lands
        # in a generic layer above D, so every cycle is re-expressed.
        cx = derived_tensor(generic["N"], generic["B"], generic["V"])[0]
        embedded.append(0)
        homology(cx, 0, degree)
        dims.append(cx.matrix(-1, degree).source.dim)

    counts = count_element_builds(monkeypatch)
    for run in (hoepi_d, transversal_h0):
        dims.clear()
        seen = []
        for degree in (8, 16):
            counts[:] = [0, 0]
            run(degree)
            seen.append(tuple(counts))
        assert dims[0] < dims[1]
        assert seen[0] == seen[1], (run.__name__, seen)
    assert all(embedded) and embedded[0] < embedded[1]


def test_differentials_hold_ints_where_integral(monkeypatch):
    """Every differential that the unit-disk scenario builds at D=8 holds
    only ints and Fractions, and each integral value is an int.  The
    self-Tor scan certifies d^-1 of each derived tensor without building
    it, and a localization step's fold map is certified bijective without
    its matrix, so those multiplication-by-relator and fold matrices are
    built here."""
    import afnd.homotopy

    built, tensors, folds = [], [], []
    build = ChainComplex._build_matrix
    real_derived = afnd.homotopy.derived_tensor
    real_fold = afnd.homotopy._reduce_fold_map

    def recording(self, n, degree):
        m = build(self, n, degree)
        built.append(m)
        return m

    def recording_derived(*args):
        out = real_derived(*args)
        tensors.append(out[0])
        return out

    def recording_fold(big, target, rename, degree):
        folds.append(fold_complex(big, target, rename))
        return real_fold(big, target, rename, degree)

    monkeypatch.setattr(ChainComplex, "_build_matrix", recording)
    monkeypatch.setattr(afnd.homotopy, "derived_tensor", recording_derived)
    monkeypatch.setattr(afnd.homotopy, "_reduce_fold_map", recording_fold)
    run_scenario(str(SCENARIOS / "unit_disk.afnd"), 8)
    relator_columns = [cx.matrix(-1, 8) for cx in tensors]
    assert relator_columns and all(any(m.entries) for m in relator_columns)
    # The old fold-map path: the level-1 homology builds d^0 and d^1.
    assert folds and all(homology(cx, 1, 8).is_zero for cx in folds)
    assert all(any(cx.matrix(0, 8).entries) for cx in folds)
    values = [v for m in built for row in m.entries for v in row.values()]
    assert len(built) >= 10 and values
    assert all(type(v) is int for v in values if v == int(v))
    assert all(type(v) is Fraction for v in values if v != int(v))


def test_cycles_are_re_expressed_only_when_the_boundary_basis_grew(
    monkeypatch,
):
    """A cycle is re-expressed on the target basis of d^(n-1) only when
    that basis is larger than the cycles' own; on the unit-disk scenario
    at D=12 it never is."""
    calls = []
    embed = ChainComplex.embed

    def counting(self, *args):
        calls.append(args)
        return embed(self, *args)

    monkeypatch.setattr(ChainComplex, "embed", counting)
    report = run_scenario(str(SCENARIOS / "unit_disk.afnd"), 12)
    assert report["all_passed"]
    assert calls == []


def test_levels_without_boundaries_skip_the_reduction(monkeypatch):
    """Where d^(n-1) is zero, the kernel vectors are the homology: the
    report equals the one that reducing each cycle against the earlier ones
    gives, and no cycle is reduced: on the fold map of A{x, y} (x)_A{x}
    A{x, y} at level 0, with 220 cycles at D=10, and on the head of the
    unit-disk cover, with none."""
    square, target, rename = next(
        (s, t, r) for label, s, t, r in hand_maps() if label == "free extension"
    )
    cover = parse_scenario(
        (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    ).algebras
    cases = [
        (fold_complex(square, target, rename), 10, 220),
        (build_complex(CoverData(cover["A"], (cover["V1"], cover["V2"])), 2),
         8, 0),
    ]
    calls = []

    def counted(*args):
        calls.append(args)
        return reduce_against(*args)

    monkeypatch.setattr("afnd.complexes.reduce_against", counted)
    for cx, degree, cycle_rank in cases:
        rep = homology(cx, 0, degree)
        assert calls == []
        basis = cx.level_basis(0, degree)
        zs = kernel_basis(cx.matrix(0, degree).entries, basis.dim)
        # The earlier cycles' remainders, Jordan-reduced and keyed by pivot.
        rows = {}
        for z in zs:
            rem = reduce_against(z, rows)
            if rem:
                c = min(rem)
                new = {j: exact_div(v, rem[c]) for j, v in rem.items()}
                for k, row in rows.items():
                    if c in row:
                        rows[k] = reduce_against(row, {c: new})
                rows[c] = new
        assert len(zs) == rep.cycle_rank == cycle_rank
        assert rep.rank == len(rows) and rep.is_zero == (not rows)
        assert rep.boundary_rank == 0
        if zs:
            assert rep.witness.coords == zs[0]
            assert rep.witness.parts == basis.parts(zs[0])
        else:
            assert rep.witness is None
    # A level with boundaries still reduces its cycles.
    homology(cases[0][0], 1, 10)
    assert calls


def test_quotient_koszul_is_the_derived_tensor_over_the_base():
    """For a quotient of the base on its ambient, base (x)^L_base target is
    the Koszul complex of the extra relations over the base itself."""
    A = free_affinoid(disc())
    x = parse_element("x", A.ambient)
    B = quotient(A, [x * x])
    pairs = list(scenario_pairs()) + [
        ("A/(x)", A, quotient(A, [x])),
        ("A/(x^2)/(x)", B, quotient(B, [x])),
        ("A/(x^2, x^3)", A, quotient(A, [x * x, x * x * x])),
    ]
    compared = 0
    for label, base, piece in pairs:
        n = len(base.relations)
        if piece.ambient != base.ambient or piece.is_zero_algebra:
            continue
        assert piece.relations[:n] == base.relations, label
        direct = koszul_complex(base, piece.relations[n:])
        derived = derived_tensor(base, base, piece)[0]
        for m in sorted(derived.components):
            a, b = direct.matrix(m, 8), derived.matrix(m, 8)
            assert a.source.entries == b.source.entries, label
            assert a.target.entries == b.target.entries, label
            assert a.entries == b.entries, label
        compared += 1
    assert compared >= 5
