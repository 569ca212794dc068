"""Affinoid presentations: normal forms, localizations, tensor products."""

import itertools
import pathlib
from fractions import Fraction

import pytest

from afnd.affinoid import (
    AffinoidPresentation,
    BezoutCertificate,
    PresentationError,
    free_affinoid,
    laurent_localization,
    localization_path,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.cli import run_scenario
from afnd.linalg import NormAwareElimination
from afnd.scalar import FieldSpec, NormValue
from afnd.tate import Polyradius, TateElement, grevlex_key, parse_element
from helpers import of_rational

Q5 = FieldSpec.padic(5)
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def unit_disc(*names):
    names = names or ("x",)
    return Polyradius(Q5, names, (NormValue.one(),) * len(names))


@pytest.fixture
def A():
    return free_affinoid(unit_disc())


def test_free_normal_form(A):
    f = parse_element("x^2 + 5", A.ambient)
    assert A.normal_form(f, 8) == f
    assert A.monomial_basis(2) == [(0,), (1,), (2,)]


def test_quotient_normal_form(A):
    # A/(x^2 - 5): x^2 rewrites to 5, so x^3 + x becomes 6x.
    B = quotient(A, [parse_element("x^2 - 5", A.ambient)])
    nf = B.normal_form(parse_element("x^3 + x", A.ambient), 8)
    assert str(nf) == "6*x"
    assert B.monomial_basis(8) == [(0,), (1,)]


def test_zero_algebra_detection(A):
    # Inverting x on the small disk |x| <= 1/5 forces 1 = x*S with
    # |x*S| < 1: the algebra collapses.
    small = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    dead = laurent_localization(
        small,
        g=[parse_element("x", small.ambient)],
        g_radii=[NormValue.one()],
    )
    assert dead.is_zero_algebra
    assert dead.monomial_basis(6) == []


def test_pair_relation_across_two_pairs_is_identified():
    # x*s = 1 and y*t = 1 are Laurent pairs.  3*x*y = 2 runs through both,
    # and y = y*(x*s) = (x*y)*s = (2/3)*s exactly, so nothing is left to the
    # degree-bounded generic layer.
    amb = unit_disc("x", "s", "y", "t")
    pairs = ["x*s - 1", "y*t - 1"]
    B = quotient(
        free_affinoid(amb),
        [parse_element(f, amb) for f in pairs + ["3*x*y - 2"]],
    )
    assert B.generic_relations == []
    assert str(B.substitutions["y"]) == "2/3*s"
    assert str(B.substitutions["t"]) == "3/2*x"
    assert B.monomial_basis(1) == [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    # 3*x*y = 5 asks for |x*y| = 1/5 on the torus |x| = |y| = 1: empty.
    empty = quotient(
        free_affinoid(amb),
        [parse_element(f, amb) for f in pairs + ["3*x*y - 5"]],
    )
    assert empty.is_zero_algebra


def test_zero_algebra_has_an_exact_layer_strategy():
    # Found zero by the shared-factor rule, with Laurent pairs installed.
    amb = unit_disc("x", "s", "y", "t")
    empty = quotient(
        free_affinoid(amb),
        [parse_element(f, amb) for f in ["x*s - 1", "y*t - 1", "3*x*y - 5"]],
    )
    assert empty.is_zero_algebra
    assert empty.laurent_pairs and empty.generic_relations == []
    # Found zero by a dominant constant term, before any pair is read.
    A = free_affinoid(unit_disc())
    Z = quotient(A, [parse_element("1 + 5*x", A.ambient)])
    assert Z.is_zero_algebra
    assert not Z.laurent_pairs
    assert Z.generic_relations == [] and Z.monomial_basis(4) == []


def test_duplicate_generic_relation_is_kept_once():
    """M (x)_B M repeats the relation of M.  Each Macaulay row of the copy
    is cleared to zero by its twin, which has the lower row index and so is
    taken first on equal keys: dropping the copy changes no pivot and no
    normal-form basis."""
    bidisc = Polyradius(
        Q5, ("x", "y"), (NormValue.one(), of_rational(2))
    )
    B = free_affinoid(bidisc)
    M = quotient(B, [parse_element("3*x^2 - 10*y", bidisc)])
    square, _ = tensor_over(B, M, M)
    assert square.relations[0] == square.relations[1]
    assert square.generic_relations == M.generic_relations
    doubled = AffinoidPresentation(square.ambient, square.relations)
    doubled.generic_relations = doubled.generic_relations * 2
    for degree in (4, 8):
        # Equal rows under equal pivots, taken in the same order.
        assert list(doubled._generic_elimination(degree).items()) == list(
            square._generic_elimination(degree).items()
        )
        assert doubled.monomial_basis(degree) == square.monomial_basis(degree)


def test_weierstrass_localization_eliminates_variable(A):
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    assert V.is_over(A)
    assert V.localization.base is A
    assert [str(rel) for rel in V.relations] == ["T - x"]
    # x = T in the localization, so x - T reduces to zero.
    diff = parse_element("x - T", V.ambient)
    assert V.normal_form(diff, 6) == TateElement.zero(V.ambient)


def test_laurent_localization_normal_form(A):
    W = laurent_localization(
        A, g=[parse_element("x", A.ambient)], g_radii=[of_rational(5)]
    )
    s = W.ambient.names[-1]
    assert [str(rel) for rel in W.relations] == [f"-1 + x*{s}"]
    # x * s = 1, so x^3 s^2 + 2 reduces to x + 2.
    f = parse_element(f"x^3*{s}^2 + 2", W.ambient)
    assert str(W.normal_form(f, 8)) == "2 + x"


def test_rational_localization_with_certificate():
    A2 = free_affinoid(unit_disc("x"))
    x = parse_element("x", A2.ambient)
    # (-1)*(x - 1) + 1*x = 1 certifies (x, x - 1) = (1).
    f = [x]
    g = parse_element("x - 1", A2.ambient)
    cert = BezoutCertificate(
        parse_element("-1", A2.ambient), (parse_element("1", A2.ambient),)
    )
    assert cert.verify(f, g)
    V = rational_localization(A2, f, g, [NormValue.one()], certificate=cert)
    assert V.localization.base.localization.base is A2
    # The certificate gives |x - 1| >= 1, so S = 1/(x - 1) has radius 1.
    assert str(V) == "Q_5{x:1, T:1, T':1}/(-1 - T + x*T, T' - x*T)"
    assert [str(rel) for rel in V.relations] == ["-1 - T + x*T", "T' - x*T"]
    assert V.ambient.radii == (NormValue.one(),) * 3
    # A Laurent step inverting g, then a Weierstrass step: one fresh
    # variable, and so one relator, each.
    path = localization_path(V, A2)
    assert path is not None
    assert [node.ambient.nvars for node in path] == [3, 2, 1]


def test_rational_localization_needs_certificate(A):
    x = parse_element("x", A.ambient)
    one = TateElement.constant(A.ambient, 1)
    cases = [
        ([x], parse_element("x^2 + 1", A.ambient)),
        # A generator variable g still needs a certificate.
        ([x], x),
        # With no function to bound there is no rational domain.
        ([], one),
    ]
    for f, g in cases:
        with pytest.raises(PresentationError):
            rational_localization(A, f, g, [NormValue.one()] * len(f))


def test_rational_reduces_to_weierstrass(A):
    one = TateElement.constant(A.ambient, 1)
    V = rational_localization(
        A, [parse_element("x", A.ambient)], one, [NormValue.prime_power(5, -1)]
    )
    assert V.localization.base is A
    assert [str(rel) for rel in V.relations] == ["T - x"]


def test_tensor_over_renames(A):
    V = weierstrass_localization(
        A, [parse_element("x", A.ambient)], [NormValue.prime_power(5, -1)]
    )
    T, rename = tensor_over(A, V, V)
    assert T.is_over(A)
    assert rename == {"T": "T'"}  # the second copy's variable is primed
    # B's variables, then C's past A's in order: the layout cech reads.
    assert T.ambient.names == ("x", "T", "T'")


@pytest.mark.parametrize("constant, zero", [(3, True), (2, False)])
def test_shared_factor_relations(constant, zero):
    """x*y = 1 and 2*x*y = c share the factor x*y: for c = 3 they
    contradict each other, so the algebra is zero; for c = 2 the second is
    twice the first and drops out."""
    bidisc = unit_disc("x", "y")
    free = free_affinoid(bidisc)
    pair = parse_element("x*y - 1", bidisc)
    M = quotient(free, [pair, parse_element(f"2*x*y - {constant}", bidisc)])
    assert M.is_zero_algebra is zero
    if zero:
        assert M.monomial_basis(4) == []
    else:
        assert M.monomial_basis(4) == quotient(free, [pair]).monomial_basis(4)


def test_reduce_reports_norm(A):
    B = quotient(A, [parse_element("x^2 - 5", A.ambient)])
    r = B.normal_form(parse_element("x^3", A.ambient), 8)
    assert str(r) == "5*x"
    assert r.gauss_norm() == NormValue.prime_power(5, -1)


def test_is_over_rejects_unrelated():
    A1 = free_affinoid(unit_disc("x"))
    A2 = free_affinoid(unit_disc("y"))
    assert not A2.is_over(A1)


def test_generic_basis_builds_no_pivot_scores(monkeypatch):
    """The normal-form basis reads which columns are pivots, not their
    scores, so it divides no norms."""
    bidisc = Polyradius(
        Q5, ("x", "y"), (NormValue.one(), of_rational(2))
    )
    M = quotient(free_affinoid(bidisc), [parse_element("3*x^2 - 10*y", bidisc)])
    assert M.generic_relations
    calls = []
    divide = NormValue.__truediv__

    def counted(a, b):
        calls.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(NormValue, "__truediv__", counted)
    basis = M.monomial_basis(8)
    assert calls == []
    # x^2 = (10/3) y: no basis monomial is divisible by x^2.
    assert basis and all(e[0] < 2 for e in basis)
    assert len(basis) == 2 * 8 + 1


@pytest.fixture(scope="module")
def scenario_generic_presentations():
    """Every distinct presentation with generic relations that running the
    bundled scenarios builds: their algebras, the self-tensors and fold-map
    squares of `epi` and `hoepi`, and the pushouts of derived tensors and
    Cech intersections."""
    built = []
    init = AffinoidPresentation.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffinoidPresentation, "__init__", recording)
        for path in sorted(SCENARIOS.glob("*.afnd")):
            run_scenario(str(path))
    distinct = {(p.ambient, p.relations): p for p in built if p.generic_relations}
    return list(distinct.values())


def macaulay_oracle(pres, degree):
    """`_generic_elimination` from first principles: one row per generic
    relation rel and shape monomial x^m with deg rel + deg m <= D, each the
    shape normal form of the element rel * x^m, eliminated over the shape
    monomials of degree <= D in grevlex order."""
    ambient = pres.ambient

    def shape_monomials(top):
        out = []
        for d in range(top + 1):
            for picks in itertools.combinations_with_replacement(
                pres.free_variable_indices(), d
            ):
                e = tuple(picks.count(i) for i in range(ambient.nvars))
                x_e = TateElement.monomial(ambient, e)
                if pres.shape_normal(x_e) == x_e:
                    out.append(e)
        return sorted(out, key=grevlex_key)

    cols = shape_monomials(degree)
    col_of = {e: j for j, e in enumerate(cols)}
    rows = []
    for rel in pres.generic_relations:
        for m in shape_monomials(degree - rel.total_degree()):
            prod = pres.shape_normal(rel * TateElement.monomial(ambient, m))
            rows.append({col_of[e]: c for e, c in prod.terms.items()})
    if not rows:
        return None
    elim = NormAwareElimination(
        pres.field,
        rows,
        [NormValue.one()] * len(rows),
        [ambient.monomial_weight(e) for e in cols],
    )
    return [(j, elim.srows[i]) for i, j in elim.pivots]


@pytest.mark.parametrize("degree", [1, 2, 4, 8])
def test_macaulay_rows_match_elementwise_products(
    scenario_generic_presentations, degree
):
    """The relation rows that `pushed_images` walks out equal the shape
    normal forms of rel * x^m built one element at a time, also at a D
    below the degree of a relation, whose multiples must all be left out."""
    presentations = scenario_generic_presentations
    assert any(
        rel.total_degree() >= 3
        for pres in presentations
        for rel in pres.generic_relations
    )
    for pres in presentations:
        fresh = AffinoidPresentation(pres.ambient, pres.relations)
        # The pivots and their rows, in the order the pivots were taken.
        generic = fresh._generic_elimination(degree)
        assert (
            None if generic is None else list(generic.items())
        ) == macaulay_oracle(fresh, degree), pres
