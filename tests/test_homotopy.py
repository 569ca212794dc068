"""Morphism verdicts: epimorphisms, homotopy epimorphisms, transversality."""

import pathlib
from fractions import Fraction

import pytest

from afnd.affinoid import (
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    localization_path,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.cli import parse_scenario
from afnd.complexes import ChainComplex, derived_tensor
from afnd.homotopy import (
    FAILS,
    HOLDS,
    UNRESOLVED,
    _reduce_fold_map,
    _tor_ranks,
    check_transversal,
    is_epimorphism,
    is_homotopy_epi,
)
from afnd.linalg import reduce_against, sparse_rref
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, TateElement, parse_element
from helpers import of_rational

Q5 = FieldSpec.padic(5)
D = 10


def unit_disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


def make_base():
    return free_affinoid(unit_disc())


def test_identity_is_epi():
    A = make_base()
    assert is_epimorphism(A, A, D).holds


def test_free_extension_is_not_epi():
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    v = is_epimorphism(A, B, D)
    assert v.status == FAILS
    # Rank-nullity on the fold map: the kernel rank is the source dimension
    # minus the rank of one reduction.
    assert v.detail == "multiplication map not bijective: kernel of rank 220"
    # Both ends are exact, so a kernel vector of the fold map is a witness:
    # y - y' in the self-tensor.
    assert v.witness.degree == 0
    assert {str(p) for p in v.witness.parts.values()} == {"-y' + y"}


def test_closed_immersion_epi_but_not_homotopy_epi():
    A = make_base()
    k = quotient(A, [parse_element("x", A.ambient)])
    assert is_epimorphism(A, k, D).holds
    v = is_homotopy_epi(A, k, D)
    assert v.status == FAILS
    assert v.homology_ranks[-1] == 1
    assert v.witness is not None


def test_weierstrass_hoepi():
    A = make_base()
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    assert is_homotopy_epi(A, V, D).holds


def test_laurent_hoepi():
    A = make_base()
    V = laurent_localization(
        A, g=[parse_element("x", A.ambient)], g_radii=[of_rational(5)]
    )
    assert is_homotopy_epi(A, V, D).holds


def test_certified_rational_hoepi():
    A = make_base()
    f = [parse_element("x", A.ambient)]
    g = parse_element("x - 1", A.ambient)
    cert = BezoutCertificate(
        parse_element("-1", A.ambient), (parse_element("1", A.ambient),)
    )
    V = rational_localization(
        A, f, g, [NormValue.one()], certificate=cert
    )
    v = is_homotopy_epi(A, V, D)
    assert v.holds
    assert "step" in v.detail  # verified along the localization chain


def test_hoepi_unresolved_without_resolution():
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    assert is_homotopy_epi(A, B, D).status == UNRESOLVED


def test_transversal_module_vs_disjoint_localization():
    A = make_base()
    M = quotient(A, [parse_element("x", A.ambient)])
    V = laurent_localization(
        A, g=[parse_element("x", A.ambient)], g_radii=[of_rational(5)]
    )
    v = check_transversal(M, A, V, D)
    assert v.status == HOLDS
    assert all(r == 0 for r in v.homology_ranks.values())


def test_non_transversal_fiber_probe():
    A = make_base()
    M = quotient(A, [parse_element("x", A.ambient)])
    # The fiber at x = 0 meets M non-flatly: Tor_1 = k survives.  M is a
    # quotient of A, so it is resolved by the Koszul complex on x.
    v = check_transversal(M, A, M, D)
    assert v.status == FAILS
    assert v.homology_ranks[-1] == 1
    assert v.witness is not None


# -- the fold map against a hand-written reference ---------------------------

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def reference_fold_map(big, target, rename, degree):
    """The fold map big -> target reduced by hand, without a ChainComplex.

    Columns are normal forms over the target basis at the growth degree;
    the kernel rank is the source dimension minus their rank, and the map
    is onto when every degree-bounded target monomial lies in their span.
    """
    inverse = {v: k for k, v in rename.items()}
    positions = [
        target.ambient.index(inverse.get(name, name))
        for name in big.ambient.names
    ]
    source = big.monomial_basis(degree)
    images = []
    growth = degree
    for e in source:
        merged = [0] * target.ambient.nvars
        for pos, k in zip(positions, e):
            merged[pos] += k
        elem = TateElement.monomial(target.ambient, tuple(merged), 1)
        growth = max(growth, target.shape_normal(elem).total_degree())
        images.append(elem)
    col_of = {e: i for i, e in enumerate(target.monomial_basis(growth))}
    span = []
    for elem in images:
        nf = target.normal_form(elem, growth)
        span.append({col_of[e]: c for e, c in nf.terms.items()})
    rows, pivots = sparse_rref(span)
    hit = all(
        not reduce_against({col_of[e]: Fraction(1)}, dict(zip(pivots, rows)))
        for e in target.monomial_basis(degree)
    )
    return len(source) - len(pivots), hit


def scenario_pairs():
    """(scenario, base, piece) for every algebra of a bundled scenario that
    is presented over another one."""
    for path in sorted(SCENARIOS.glob("*.afnd")):
        algebras = parse_scenario(path.read_text(encoding="utf-8")).algebras
        for b, base in algebras.items():
            for p, piece in algebras.items():
                if piece is not base and piece.is_over(base):
                    yield f"{path.stem}:{b}->{p}", base, piece


def resolvable(base, piece):
    """Whether `is_homotopy_epi` builds a Koszul model of piece over base:
    piece is a localization chain over base, or a quotient of it on the
    same ambient."""
    n = len(base.relations)
    return localization_path(piece, base) is not None or (
        piece.ambient == base.ambient and piece.relations[:n] == base.relations
    )


def reference_degree_zero(base, piece):
    """H^0 of piece (x)^L_base piece, read off its Koszul complex: level 0
    modulo the relators that d^-1 multiplies by.  Returns it with the
    rename, or None when no resolution is available."""
    if not resolvable(base, piece):
        return None
    cx, rename = derived_tensor(piece, base, piece)
    level = cx.levels[0][0].algebra
    relators = [comp.coeff for comp in cx.components.get(-1, {}).values()]
    return quotient(level, relators), rename


def fold_maps(base, piece):
    """The fold maps behind `is_epimorphism` and the degree-zero check of
    `is_homotopy_epi`: (source, target, rename) triples."""
    square, rename = tensor_over(base, piece, piece)
    yield square, piece, rename
    ref = reference_degree_zero(base, piece)
    if ref is not None and not ref[0].is_zero_algebra:
        yield ref[0], piece, ref[1]


def hand_maps():
    """Monomial maps with a kernel or a cokernel: (label, source, target,
    rename).  Fold maps of localizations are bijective, so these are what
    make the comparison see both outputs move."""
    A = make_base()
    B = free_affinoid(unit_disc("x", "y"))
    square, rename = tensor_over(A, B, B)
    yield "free extension", square, B, rename
    yield "inclusion", A, B, {}
    yield "closed immersion", A, quotient(A, [parse_element("x", A.ambient)]), {}
    generic = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    yield "generic quotient", generic["B"], generic["M"], {}
    yield "generic section", generic["M"], generic["B"], {}
    yield "generic to generic", generic["N"], generic["M"], {}


@pytest.mark.parametrize("degree", [6, 12])
def test_fold_map_matches_reference(degree):
    cases = [
        (label, big, target, rename)
        for label, base, piece in scenario_pairs()
        if not piece.is_zero_algebra
        for big, target, rename in fold_maps(base, piece)
    ]
    cases += hand_maps()
    assert len(cases) >= 26
    outcomes = set()
    for label, big, target, rename in cases:
        kernel_rank, hit, witness = _reduce_fold_map(big, target, rename, degree)
        got = (kernel_rank, hit)
        assert got == reference_fold_map(big, target, rename, degree), label
        assert (witness is None) == (not kernel_rank and hit), label
        outcomes.add((bool(kernel_rank), hit))
    assert outcomes == {(False, True), (True, True), (False, False)}


def test_degree_zero_part_is_the_self_tensor():
    """H^0 of the derived self-tensor is the epimorphism square: the same
    ambient, relations and rename on every resolved bundled pair, among
    them every (base, piece) pair that a bundled `hoepi` check or `cech`
    piece names."""
    checked = set()
    for label, base, piece in scenario_pairs():
        ref = reference_degree_zero(base, piece)
        if ref is None:
            continue
        h0, h0_rename = ref
        square, rename = tensor_over(base, piece, piece)
        assert square.ambient == h0.ambient, label
        assert square.relations == h0.relations, label
        assert rename == h0_rename, label
        checked.add(label)
    named = set()
    for path in sorted(SCENARIOS.glob("*.afnd")):
        for spec in parse_scenario(path.read_text(encoding="utf-8")).checks:
            if spec.kind == "hoepi":
                named.add(f"{path.stem}:{spec.args[0]}->{spec.args[1]}")
            elif spec.kind == "cech":
                named.update(
                    f"{path.stem}:{spec.args[0]}->{piece}"
                    for piece in spec.args[2:]
                )
    assert named and named <= checked


def test_self_tor_of_every_bundled_localization_is_peeled(monkeypatch):
    """The self-Tor scan of `is_homotopy_epi` takes the kernel of
    multiplication by the relator, which is injective.  On every step whose
    Koszul level has exact normal forms, a domain, `known_injective` says so
    and the scan builds no d^-1 at all; on the one generic step, bidisc
    A->W, the rule does not fire and singleton peeling certifies the kernel
    with no elimination."""
    import afnd.complexes
    import afnd.linalg

    pivot_loop, kernel_basis = afnd.linalg._pivot_loop, afnd.linalg.kernel_basis
    build = afnd.complexes.ChainComplex._build_matrix
    inside, eliminated, kernels, built = [], [], [], []

    def recording_loop(rows, rank):
        if inside:
            eliminated.append(len(rows))
        return pivot_loop(rows, rank)

    def recording_kernel(rows, ncols):
        inside.append(True)
        kernels.append(len(rows))
        try:
            return kernel_basis(rows, ncols)
        finally:
            inside.pop()

    def recording_build(self, n, degree):
        built.append(n)
        return build(self, n, degree)

    monkeypatch.setattr(afnd.linalg, "_pivot_loop", recording_loop)
    monkeypatch.setattr(afnd.complexes, "kernel_basis", recording_kernel)
    monkeypatch.setattr(
        afnd.complexes.ChainComplex, "_build_matrix", recording_build
    )
    steps = {}
    for label, base, piece in scenario_pairs():
        path = localization_path(piece, base)
        if path is not None:
            nodes = path[::-1]
            for i in range(len(nodes) - 1):
                steps[id(nodes[i + 1])] = label, nodes[i], nodes[i + 1]
    assert len(steps) >= 12
    generic = []
    for label, base, piece in steps.values():
        cx, _ = derived_tensor(piece, base, piece)
        kernels.clear()
        built.clear()
        ranks, witness = _tor_ranks(cx, 8, -1)
        assert witness is None and ranks == {-1: 0}, label
        if cx.levels[0][0].algebra.generic_relations:
            generic.append(label)
            assert not cx.known_injective(-1), label
            assert kernels and -1 in built, label
        else:
            assert cx.known_injective(-1), label
            assert kernels == [] and built == [], label
    assert generic == ["bidisc_cover:A->W"]
    assert eliminated == []


def test_hoepi_step_builds_one_pushout_and_one_square(monkeypatch):
    """A one-step hoepi builds the Koszul level of its derived self-tensor
    and, once self-Tor vanishes, that tensor's H^0, and nothing else: the
    fold map reduces the H^0, which shares its Polyradius with the level,
    so monomial weights are computed once for both."""
    import afnd.affinoid
    import afnd.homotopy

    algebras = parse_scenario(
        (SCENARIOS / "unit_disk.afnd").read_text(encoding="utf-8")
    ).algebras
    built = []
    init = afnd.affinoid.AffinoidPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    derived, folds = [], []
    real_derived = afnd.homotopy.derived_tensor
    real_fold = afnd.homotopy._reduce_fold_map

    def recording_derived(*args):
        derived.append(real_derived(*args))
        return derived[-1]

    def recording_fold(big, *args):
        folds.append(big)
        return real_fold(big, *args)

    monkeypatch.setattr(
        afnd.affinoid.AffinoidPresentation, "__init__", counting
    )
    monkeypatch.setattr(afnd.homotopy, "derived_tensor", recording_derived)
    monkeypatch.setattr(afnd.homotopy, "_reduce_fold_map", recording_fold)
    assert is_homotopy_epi(algebras["A"], algebras["V1"], 12).holds
    assert len(built) == 2
    [(cx, _)] = derived
    assert len(folds) == 1 and folds[0] is built[1]
    assert cx.levels[0][0].algebra is built[0]
    assert built[1].ambient is built[0].ambient


def test_quotient_gate_builds_no_presentation(monkeypatch):
    """A quotient of the base is gated on the Koszul complex of its extra
    relations over the base itself: the hoepi verdict on generic_table's
    B -> M builds nothing for the gate, and the Koszul level of its derived
    self-tensor is M itself, since the target adds no variable.  It fails
    on self-Tor, so the pushout, which only the fold map reads, is never
    built."""
    import afnd.affinoid

    algebras = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    built = []
    init = afnd.affinoid.AffinoidPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(
        afnd.affinoid.AffinoidPresentation, "__init__", counting
    )
    v = is_homotopy_epi(algebras["B"], algebras["M"], 8)
    assert v.status == FAILS
    assert v.detail.startswith("self-tensor has nonvanishing homology")
    assert built == []


def test_epimorphism_onto_a_quotient_builds_no_square(monkeypatch):
    """The self-tensor of a quotient M of B is M itself, so its fold map is
    the identity: the epi verdict on generic_table's B -> M holds with no
    presentation, matrix or elimination built once M's basis is read."""
    import afnd.affinoid
    import afnd.complexes
    import afnd.linalg

    algebras = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    M = algebras["M"]
    assert M.generic_relations and M.monomial_basis(8)
    built = []
    init = afnd.affinoid.AffinoidPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    eliminations = []
    eliminate = afnd.affinoid.NormAwareElimination

    def counting_eliminations(*args):
        eliminations.append(args)
        return eliminate(*args)

    def refuse(*args):
        raise AssertionError("the fold map of a quotient is the identity")

    monkeypatch.setattr(
        afnd.affinoid.AffinoidPresentation, "__init__", counting
    )
    monkeypatch.setattr(
        afnd.affinoid, "NormAwareElimination", counting_eliminations
    )
    monkeypatch.setattr(afnd.complexes.ChainComplex, "matrix", refuse)
    monkeypatch.setattr(afnd.complexes, "sparse_rref", refuse)
    monkeypatch.setattr(afnd.linalg, "sparse_rref", refuse)
    v = is_epimorphism(algebras["B"], M, 8)
    assert v.status == HOLDS
    assert v.detail == "multiplication map bijective on degree-bounded bases"
    assert built == [] and eliminations == []


def test_transversal_builds_only_the_koszul_level(monkeypatch):
    """A transversality verdict reads the homology of the derived tensor and
    never its H^0, so it builds the Koszul level over the pushout and no
    other presentation."""
    import afnd.affinoid

    algebras = parse_scenario(
        (SCENARIOS / "generic_table.afnd").read_text(encoding="utf-8")
    ).algebras
    built = []
    init = afnd.affinoid.AffinoidPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(
        afnd.affinoid.AffinoidPresentation, "__init__", counting
    )
    for module in ("N", "M"):
        built.clear()
        v = check_transversal(algebras[module], algebras["B"], algebras["V"], 8)
        assert v.status in (HOLDS, FAILS)
        assert len(built) == 1


def test_fold_map_runs_one_elimination(monkeypatch):
    """A Weierstrass step's fold map is certified bijective from the two
    presentations, with no matrix and no elimination.  Without that
    certificate, the kernel rank comes from the elimination behind the
    cokernel."""
    import afnd.complexes
    import afnd.homotopy
    import afnd.linalg

    real = afnd.linalg.sparse_rref
    build = ChainComplex._build_matrix
    calls, sizes, built = [], [], []

    def counting(rows):
        calls.append(len(rows))
        if any(rows):
            sizes.append(len(rows))
        return real(rows)

    def building(self, n, degree):
        built.append(n)
        return build(self, n, degree)

    monkeypatch.setattr(afnd.linalg, "sparse_rref", counting)
    monkeypatch.setattr(afnd.complexes, "sparse_rref", counting)
    monkeypatch.setattr(ChainComplex, "_build_matrix", building)
    A = make_base()
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    assert is_epimorphism(A, V, D).holds
    assert calls == [] and built == []
    monkeypatch.setattr(afnd.homotopy, "_exact_bijection", lambda *args: False)
    assert is_epimorphism(A, V, D).holds
    assert len(sizes) == 1 and built


def test_transversal_over_the_base_scans_one_tensor_once(monkeypatch):
    """On a quotient T of the base, base (x)^L_base T is the complex the
    quotient gate scans: it is built once, and each degree is scanned once.
    The verdict equals that of a module equal to the base but not it."""
    import afnd.homotopy

    real_derived = afnd.homotopy.derived_tensor
    real_homology = afnd.homotopy.homology
    tensors, scans = [], []

    def recording_derived(*args):
        out = real_derived(*args)
        tensors.append(out[0])
        return out

    def recording_homology(cx, n, degree):
        scans.append((cx, n))
        return real_homology(cx, n, degree)

    monkeypatch.setattr(afnd.homotopy, "derived_tensor", recording_derived)
    monkeypatch.setattr(afnd.homotopy, "homology", recording_homology)
    A = make_base()
    T = quotient(A, [parse_element("x^2 + 5", A.ambient)])
    v = check_transversal(A, A, T, D)
    [cx] = tensors
    assert scans == [(cx, -1), (cx, 0)]
    assert v.status == HOLDS and v.homology_ranks[-1] == 0
    copy = free_affinoid(A.ambient)
    w = check_transversal(copy, A, T, D)
    assert len(tensors) == 3 and len(scans) == 5
    assert (w.status, w.detail, w.homology_ranks, w.witness) == (
        v.status, v.detail, v.homology_ranks, v.witness
    )


def test_collapsed_self_tensor_proves_the_target_zero(monkeypatch):
    """B (x)_A B -> B sends 1 (x) 1 to 1, so a self-tensor found to be the
    zero algebra makes the target zero as well, and hoepi holds."""
    import afnd.homotopy

    real = afnd.homotopy.koszul_h0

    def collapsed(cx):
        square = real(cx)
        return quotient(square, [TateElement.constant(square.ambient, 1)])

    monkeypatch.setattr(afnd.homotopy, "koszul_h0", collapsed)
    A = make_base()
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    v = is_homotopy_epi(A, V, D)
    assert (v.status, v.detail) == (
        HOLDS, "target is the zero algebra: its self-tensor collapses"
    )


def test_verdict_details():
    """Every epi, hoepi and transversal branch these inputs reach, pinned."""
    A = make_base()
    x = parse_element("x", A.ambient)
    V = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    # |x^2| <= 5^-1: T - x^2 is a generic relation (|x^2| = 1 dominates
    # |T|), so its fold maps reach the degree-bounded generic layer.
    V2 = weierstrass_localization(A, [x * x], [NormValue.prime_power(5, -1)])
    W = weierstrass_localization(
        V, [x.in_ambient(V.ambient)], [NormValue.prime_power(5, -2)]
    )
    lau = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    k = quotient(A, [x])
    B = free_affinoid(unit_disc("x", "y"))
    C = free_affinoid(unit_disc("y"))
    y = parse_element("y", C.ambient)
    # A localization of C, so not presented over A.
    VC = weierstrass_localization(C, [y], [NormValue.prime_power(5, -1)])
    Z = quotient(A, [parse_element("1 + 5*x", A.ambient)])
    assert Z.is_zero_algebra
    # x^2, x^3 is not a regular sequence, so its Koszul complex is rejected.
    J = quotient(A, [x * x, x * x * x])
    fallback = (
        "fallback Koszul complex does not resolve the target "
        "at this truncation degree"
    )
    generic = "; the degree-bounded generic layer cannot certify it"
    cases = [
        (
            is_epimorphism(A, V, D), HOLDS,
            "multiplication map bijective on degree-bounded bases", {},
        ),
        (
            is_epimorphism(A, B, D), FAILS,
            "multiplication map not bijective: kernel of rank 220", {},
        ),
        (
            is_epimorphism(A, V2, D), UNRESOLVED,
            "multiplication map not bijective: kernel of rank 19" + generic,
            {},
        ),
        (
            is_homotopy_epi(A, V2, D), UNRESOLVED,
            "degree-zero part differs from the target: "
            "fold map has kernel of rank 19" + generic,
            {-1: 0},
        ),
        (
            is_homotopy_epi(A, V, D), HOLDS,
            "self-tensor concentrated in degree zero and matching the target",
            {-1: 0, 0: 0},
        ),
        (
            is_homotopy_epi(A, W, D), HOLDS,
            "holds at every step of the localization chain", {},
        ),
        (
            is_homotopy_epi(A, k, D), FAILS,
            "self-tensor has nonvanishing homology in negative degrees",
            {-1: 1},
        ),
        (
            is_homotopy_epi(C, A, D), UNRESOLVED,
            "target is not presented over the base", {},
        ),
        (
            is_homotopy_epi(A, B, D), UNRESOLVED,
            "no resolution available for the target", {},
        ),
        (is_homotopy_epi(A, J, D), UNRESOLVED, fallback, {}),
        (
            is_homotopy_epi(A, Z, D), HOLDS, "target is the zero algebra", {},
        ),
        (
            check_transversal(k, A, lau, D), HOLDS,
            "derived tensor concentrated in degree zero", {-1: 0, 0: 0},
        ),
        (
            check_transversal(k, A, k, D), FAILS,
            "derived tensor has homology in negative degrees", {-1: 1, 0: 1},
        ),
        (
            check_transversal(C, A, V, D), UNRESOLVED,
            "module is not presented over the base", {},
        ),
        (
            check_transversal(k, A, VC, D), UNRESOLVED,
            "target is not presented over the base", {},
        ),
        (
            check_transversal(A, A, B, D), UNRESOLVED,
            "no resolution available for the target", {},
        ),
        (check_transversal(A, A, J, D), UNRESOLVED, fallback, {}),
        (
            check_transversal(A, A, Z, D), HOLDS,
            "target is the zero algebra", {},
        ),
    ]
    for verdict, status, detail, ranks in cases:
        assert (verdict.status, verdict.detail) == (status, detail)
        assert verdict.homology_ranks == ranks, detail
        assert (verdict.witness is not None) == (status == FAILS), detail
