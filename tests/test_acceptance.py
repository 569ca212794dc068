"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test prints a single PASS/FAIL line (visible even under pytest capture)
so a full run doubles as a checklist.  Timed checks assert their own budget.
"""

import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from afnd.affinoid import (
    BezoutCertificate,
    free_affinoid,
    laurent_localization,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.cech import CoverData, build_complex
from afnd.complexes import (
    ChainComplex,
    MapComponent,
    Summand,
    homology,
)
from afnd.homotopy import (
    FAILS,
    check_transversal,
    is_epimorphism,
    is_homotopy_epi,
)
from afnd.linalg import kernel_basis
from afnd.normed import strict_epi_constant
from afnd.scalar import FieldSpec, NormValue, scalar_norm
from afnd.spectrum import (
    GaussPoint,
    conservativity_probe,
    cover_check,
    default_sample,
    domain_of,
)
from afnd.tate import Polyradius, TateElement, parse_element
from helpers import of_rational, proved_acyclicity, verify_d_squared

Q5 = FieldSpec.padic(5)
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(autouse=True)
def announce(request, capsys):
    """Print one PASS/FAIL line per acceptance check."""
    label = request.function.__doc__.strip().rstrip(".")
    outcome = {"ok": True}
    request.node._accept_outcome = outcome
    try:
        yield
    except BaseException:
        outcome["ok"] = False
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    else:
        with capsys.disabled():
            print(f"[PASS] {label}")


def unit_disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


def random_scalar(rng):
    num = rng.randint(-50, 50)
    while num == 0:
        num = rng.randint(-50, 50)
    den = rng.choice([1, 1, 5, 25, 3, 7])
    return Fraction(num, den)


def random_element(rng, ambient, max_total_degree, nterms):
    terms = {}
    n = ambient.nvars
    for _ in range(nterms):
        exps = [0] * n
        budget = rng.randint(0, max_total_degree)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = random_scalar(rng)
    el = TateElement(ambient, terms)
    if not el.terms:
        return random_element(rng, ambient, max_total_degree, nterms)
    return el


def test_gauss_norm_multiplicativity():
    """Gauss norm multiplicativity on 200 random pairs in two variables."""
    rng = random.Random(2024)
    ambient = Polyradius(
        Q5, ("x", "y"), (NormValue.one(), NormValue.prime_power(5, -1))
    )
    start = time.monotonic()
    for _ in range(200):
        f = random_element(rng, ambient, 6, rng.randint(1, 6))
        g = random_element(rng, ambient, 6, rng.randint(1, 6))
        assert (f * g).gauss_norm() == f.gauss_norm() * g.gauss_norm()
    assert time.monotonic() - start < 5.0


def test_one_dimensional_tensor_table():
    """One-dimensional tensor products multiply the weights exactly."""
    point = free_affinoid(Polyradius(Q5, (), ()))

    def tensor_weight(v1, v2):
        # k_v1 (x) k_v2 as the tensor of one-variable free algebras over a
        # point: its weight is the norm of x (x) x'.
        square, _ = tensor_over(
            point,
            free_affinoid(Polyradius(Q5, ("x",), (v1,))),
            free_affinoid(Polyradius(Q5, ("x",), (v2,))),
        )
        return square.ambient.monomial_weight((1, 1))

    assert tensor_weight(of_rational(2), of_rational(3)) \
        == of_rational(6)
    for r in (2, 3, 7, 10):
        v = of_rational(r)
        assert tensor_weight(v, NormValue.one()) == v
    rng = random.Random(5)
    for _ in range(20):
        e1 = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for p in (2, 5)}
        e2 = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for p in (3, 5)}
        v1 = NormValue({p: e for p, e in e1.items() if e})
        v2 = NormValue({p: e for p, e in e2.items() if e})
        assert tensor_weight(v1, v2) == v1 * v2


def test_koszul_injectivity_random():
    """Multiplication by T - f is injective at truncation 12 for 20 random f."""
    rng = random.Random(99)
    ambient = unit_disc("x", "T")
    A = free_affinoid(ambient)
    t = parse_element("T", ambient)
    start = time.monotonic()
    for _ in range(20):
        f = random_element(rng, unit_disc("x"), 4, rng.randint(1, 4))
        rel = t - f.in_ambient(ambient)
        levels = {0: [Summand(A, "tgt")], -1: [Summand(A, "src")]}
        comps = {-1: {(0, 0): MapComponent(rel, {})}}
        cx = ChainComplex(Q5, levels, comps)
        assert homology(cx, -1, 12).is_zero
    assert time.monotonic() - start < 30.0


def test_homotopy_epimorphism_suite():
    """Localizations are homotopy epimorphisms; a closed immersion is not."""
    A = free_affinoid(unit_disc())
    x = parse_element("x", A.ambient)
    D = 10
    w = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    assert is_homotopy_epi(A, w, D).holds
    lau = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    assert is_homotopy_epi(A, lau, D).holds
    cert = BezoutCertificate(
        parse_element("-1", A.ambient), (parse_element("1", A.ambient),)
    )
    rat = rational_localization(
        A, [x], parse_element("x - 1", A.ambient), [NormValue.one()],
        certificate=cert,
    )
    assert is_homotopy_epi(A, rat, D).holds
    # The closed point is an epimorphism but not a homotopy epimorphism.
    k = quotient(A, [x])
    assert is_epimorphism(A, k, D).holds
    v = is_homotopy_epi(A, k, D)
    assert v.status == FAILS
    assert v.homology_ranks[-1] == 1
    assert v.witness is not None


def two_piece_cover():
    A = free_affinoid(unit_disc())
    x = parse_element("x", A.ambient)
    v1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    v2 = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    return A, v1, v2


def _oracle_split(cx, degree):
    """Monomial splitting oracle for the two-piece cover complex.

    Level 1 is V1 + V2, level 2 the overlap annulus.  Restriction maps are
    monomial-to-monomial, so surjectivity onto the overlap and preimages of
    agreeing pairs reduce to bookkeeping with exponent tuples; no elimination
    is involved.  Returns (column map level-1 -> level-2, bases).
    """
    m1 = cx.matrix(1, degree)
    src, tgt = m1.source, m1.target
    hit = {}
    for j in range(src.dim):
        col = [m1.entries[i].get(j, Fraction(0)) for i in range(tgt.dim)]
        nz = [(i, c) for i, c in enumerate(col) if c]
        # Each restriction sends a basis monomial to +-1 times one monomial.
        assert len(nz) == 1 and abs(nz[0][1]) == 1
        hit.setdefault(nz[0][0], []).append((j, nz[0][1]))
    return hit, src, tgt


def test_tate_acyclicity_with_oracle():
    """Two-piece cover of the unit disk is strictly exact with constant one."""
    A, v1, v2 = two_piece_cover()
    cover = CoverData(A, (v1, v2))
    degree = 20
    start = time.monotonic()
    report = proved_acyclicity(cover, 2, degree)
    assert report.exact
    assert report.constant == NormValue.one()
    for verdict in report.positions:
        assert verdict.exact
        assert verdict.constant == NormValue.one()
    # Independent oracle: every overlap monomial is a +-1 image of a piece
    # monomial of the same weight (surjectivity with norm constant one) ...
    cx = build_complex(cover, 2)
    hit, src, tgt = _oracle_split(cx, degree)
    for i in range(tgt.dim):
        assert i in hit
        j, _ = hit[i][0]
        assert src.weights[j] == tgt.weights[i]
    # ... and every agreeing pair on the overlap descends to the base: each
    # kernel vector of the gluing map is matched monomial-for-monomial by an
    # image of a base monomial of the same weight.
    m0 = cx.matrix(0, degree)
    base_cols = {}
    for j in range(m0.source.dim):
        col = tuple(
            m0.entries[i].get(j, Fraction(0)) for i in range(m0.target.dim)
        )
        base_cols[col] = m0.source.weights[j]
    m1 = cx.matrix(1, degree)
    for sparse_vec in kernel_basis(m1.entries, m1.source.dim):
        vec = [sparse_vec.get(k, Fraction(0)) for k in range(m1.source.dim)]
        support = [(i, c) for i, c in enumerate(vec) if c]
        # Oracle preimage: kernel vectors of the monomial gluing map pair one
        # V1 monomial with one V2 monomial, the image of one base monomial.
        assert len(support) == 2
        col = tuple(vec[k] / support[0][1] for k in range(len(vec)))
        assert col in base_cols or tuple(-c for c in col) in base_cols
        w = base_cols.get(col) or base_cols.get(tuple(-c for c in col))
        pair_norm = max(
            scalar_norm(Q5, c) * src.weights[i] for i, c in support
        )
        assert w == pair_norm
    assert time.monotonic() - start < 60.0


def test_cover_surjectivity_and_conservativity():
    """Point samples certify the full cover and expose the gap family."""
    A, v1, v2 = two_piece_cover()
    sample = default_sample(A.ambient)
    gauss_radii = {
        str(pt.radii[0]) for pt in sample if isinstance(pt, GaussPoint)
    }
    assert gauss_radii == {"1", "5^-1/2", "5^-1", "5^-3/2", "5^-2"}
    full = cover_check([domain_of(v1), domain_of(v2)], points=sample)
    assert full.covered
    x = parse_element("x", A.ambient)
    gap_v2 = laurent_localization(A, g=[x], g_radii=[NormValue.one()])
    gap = cover_check([domain_of(v1), domain_of(gap_v2)], points=sample)
    assert not gap.covered
    assert [str(w) for w in gap.witnesses] == ["gauss(0±5^-1/2)"]
    # The annulus probe is nonzero yet vanishes against both gap pieces.
    probe = laurent_localization(
        weierstrass_localization(
            A, [x], [NormValue.prime_power(5, Fraction(-1, 4))]
        ),
        g=[x],
        g_radii=[NormValue.prime_power(5, Fraction(3, 4))],
    )
    report = conservativity_probe(A, [v1, gap_v2], probe)
    assert report.probe_nonzero
    assert report.tensors_zero == [True, True]
    assert report.violated


def test_amitsur_differential_squares_to_zero():
    """d after d vanishes up to depth three on a three-piece cover."""
    A = free_affinoid(unit_disc())
    x = parse_element("x", A.ambient)
    v1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, -2)])
    v2 = laurent_localization(
        A,
        f=[x],
        f_radii=[NormValue.prime_power(5, -1)],
        g=[x],
        g_radii=[of_rational(25)],
    )
    v3 = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    cover = CoverData(A, (v1, v2, v3))
    assert verify_d_squared(build_complex(cover, 3), 8)


def test_transversality_verdicts():
    """A/(x) is transversal to inverting x and not to the fiber at zero."""
    A = free_affinoid(unit_disc())
    x = parse_element("x", A.ambient)
    M = quotient(A, [x])
    lau = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    good = check_transversal(M, A, lau, 10)
    assert good.holds
    assert all(r == 0 for r in good.homology_ranks.values())
    bad = check_transversal(M, A, M, 10)
    assert bad.status == FAILS
    assert bad.homology_ranks[-1] == 1
    assert bad.witness is not None
    assert bad.witness.parts and str(bad.witness.parts[0]) == "1"


def test_strictness_classification():
    """Hand matrices have exact strictness constants: 5, none and 1."""
    one = [NormValue.one()]
    assert strict_epi_constant(Q5, [{0: 5}], one, one) == of_rational(5)
    assert strict_epi_constant(Q5, [{}], one, one) is None
    two = [NormValue.one(), of_rational(2)]
    assert strict_epi_constant(Q5, [{0: 1}], one, two) == NormValue.one()


def test_scenario_reports_deterministic():
    """Bundled scenario reports are byte-identical across two runs."""
    for name in ("unit_disk.afnd", "norm_table.afnd", "gap_cover.afnd"):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "afnd.cli", str(SCENARIOS / name)],
                capture_output=True,
            )
            assert proc.returncode in (0, 1)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0]  # a report was actually produced
