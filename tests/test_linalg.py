"""Exact sparse linear algebra and the norm-aware elimination."""

import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

from afnd.affinoid import free_affinoid, laurent_localization, weierstrass_localization
from afnd import linalg
from afnd.cech import CoverData, build_complex
from afnd.linalg import (
    NormAwareElimination,
    kernel_basis,
    reduce_against,
    sparse_rref,
)
from afnd.scalar import FieldSpec, NormValue, scalar_norm
from afnd.tate import Polyradius, parse_element
from helpers import of_rational, pivot_scores

Q5 = FieldSpec.padic(5)
F = Fraction


def M(rows):
    return [[F(x) for x in row] for row in rows]


def S(rows):
    """Dense literal rows as the sparse rows that linalg takes."""
    return [{j: F(x) for j, x in enumerate(row) if x} for row in rows]


def rank(rows):
    return len(sparse_rref(rows)[1])


def test_rref_and_rank():
    rows, pivots = sparse_rref(S([[1, 2], [2, 4], [0, 1]]))
    assert pivots == [0, 1]
    assert rows == S([[1, 0], [0, 1]])
    assert rank(S([[1, 2], [2, 4]])) == 1
    assert rank([]) == 0


def test_kernel_basis():
    ker = kernel_basis(S([[1, 2, 3]]), 3)
    assert len(ker) == 2
    for vec in ker:
        assert sum(F(c) * vec.get(j, 0) for j, c in enumerate([1, 2, 3])) == 0
    # No rows: the kernel is the whole space, one unit vector per column.
    assert kernel_basis([], 2) == [{0: F(1)}, {1: F(1)}]


def test_kernel_matches_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        ker = kernel_basis(S(mat), nc)
        assert len(ker) == nc - rank(S(mat))
        for vec in ker:
            for row in mat:
                assert sum(a * vec.get(j, 0) for j, a in enumerate(row)) == 0


def test_injective_kernel_is_peeled_without_elimination(monkeypatch):
    """Multiplication by x - 5 on polynomials of degree < 6: rows x^0 and
    x^6 are singletons, and peeling them frees the next singleton on each
    side until every column is peeled, so no pivot is taken."""
    def no_pivot_loop(rows, rank):
        raise AssertionError("kernel_basis eliminated a peelable matrix")

    monkeypatch.setattr(linalg, "_pivot_loop", no_pivot_loop)
    n = 6
    rows = [{0: -5}] + [{j - 1: 1, j: -5} for j in range(1, n)] + [{n - 1: 1}]
    assert kernel_basis(rows, n) == []


@pytest.mark.parametrize("column", [-1, 3])
def test_kernel_basis_rejects_columns_outside_the_matrix(column):
    # Peeling counts columns against ncols: a stray index must not count.
    with pytest.raises(ValueError):
        kernel_basis([{column: 1}, {0: 1}, {1: 1}, {2: 1}], 3)


def test_sparse_rref_reduce_against():
    rows, pivots = sparse_rref([{0: F(2), 1: F(4)}, {1: F(1), 2: F(1)}])
    assert pivots == [0, 1]
    rem = reduce_against({0: F(2), 1: F(5), 2: F(0)}, dict(zip(pivots, rows)))
    # The remainder is supported away from the pivot columns.
    assert all(c not in pivots for c in rem)


class CountedRows(Mapping):
    """A pivot -> row map that records each lookup and refuses to be
    walked."""

    def __init__(self, rows):
        self.rows = rows
        self.lookups = []

    def __getitem__(self, c):
        self.lookups.append(c)
        return self.rows[c]

    def __iter__(self):
        raise AssertionError("the reduction walked every row")

    def __len__(self):
        raise AssertionError("the reduction counted the rows")


def test_reduce_against_touches_only_the_vector_support():
    # 200 Jordan-reduced rows: pivot 2k, with a tail in the free column
    # 2k + 1.
    rows, pivots = sparse_rref([{2 * k: 1, 2 * k + 1: k} for k in range(200)])
    keyed = CountedRows(dict(zip(pivots, rows)))
    vec = {301: F(1, 3), 10: 7, 20: 2}
    assert reduce_against(vec, keyed) == {301: F(1, 3), 11: -35, 21: -20}
    # One lookup per column of the vector, none for the columns 11 and 21
    # that the subtraction adds, and the rows of the set are not walked.
    assert keyed.lookups == [301, 10, 20]


def unit_weights(n):
    return [NormValue.one()] * n


def test_norm_aware_pivot_scores():
    # Diagonal matrix diag(1, 5, 25) over Q_5: singular values 1, 1/5, 1/25.
    mat = M([[1, 0, 0], [0, 5, 0], [0, 0, 25]])
    elim = NormAwareElimination(Q5, S(mat), unit_weights(3), unit_weights(3))
    assert elim.rank == 3
    assert [str(s) for s in pivot_scores(elim)] == ["1", "5^-1", "5^-2"]
    assert elim.smallest_score() == NormValue.prime_power(5, -2)


def test_norm_aware_respects_weights():
    # Same matrix, but the second domain coordinate carries weight 1/5,
    # which promotes the 5-entry to score 1.
    mat = M([[1, 0], [0, 5]])
    col_w = [NormValue.one(), NormValue.prime_power(5, -1)]
    elim = NormAwareElimination(Q5, S(mat), unit_weights(2), col_w)
    assert [str(s) for s in pivot_scores(elim)] == ["1", "1"]


def test_norm_aware_multi_prime_agrees_with_single():
    # Mixed-prime weights exercise the factored-norm scoring path; ranks
    # and pivot score multisets must match a plain rational rank check.
    rng = random.Random(11)
    for _ in range(10):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[F(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
        row_w = [NormValue.prime_power(3, rng.randint(-1, 1)) for _ in range(nr)]
        col_w = [NormValue.prime_power(5, rng.randint(-1, 1)) for _ in range(nc)]
        elim = NormAwareElimination(Q5, S(mat), row_w, col_w)
        assert elim.rank == rank(S(mat))


def reference_elimination(field, mat, row_w, col_w):
    """Greedy pivoting by direct NormValue comparison of every score.

    Each step takes the largest |a_ij| * row_w[i] / col_w[j] over the
    unpivoted rows and unused columns, the smallest row and then the
    smallest column among equal scores, and clears its column.
    """
    rows = [list(r) for r in mat]
    active = list(range(len(rows)))
    used: set[int] = set()
    pivots, scores = [], []
    while True:
        best = None
        for i in active:
            for j, a in enumerate(rows[i]):
                if a and j not in used:
                    s = scalar_norm(field, a) * row_w[i] / col_w[j]
                    if best is None or s > best[0]:
                        best = (s, i, j)
        if best is None:
            return pivots, scores
        s, i, j = best
        pivots.append((i, j))
        scores.append(s)
        active.remove(i)
        used.add(j)
        for i2 in active:
            f = rows[i2][j] / rows[i][j]
            if f:
                rows[i2] = [x - f * y for x, y in zip(rows[i2], rows[i])]


def test_norm_aware_matches_reference_on_two_prime_weights(monkeypatch):
    # Weights 2^(a/b) * 5^(c/d) mix the primes with rational exponents; the
    # entries carry 5-adic valuations from -1 to 2, with repeated scores.
    # Tall matrices clear each row several times, so the pivot heap holds
    # stale entries: of rows whose best key has fallen, and of rows whose
    # best key stays but moves to another column.  (An ultrametric clearing
    # step never raises a row's best key: the pivot has the largest score.)
    rng = random.Random(17)
    entries = [0, 0, 1, -2, 3, 5, -10, 25, F(1, 5), F(7, 5), 50]
    def weight():
        return NormValue({
            2: F(rng.randint(-3, 3), rng.randint(1, 3)),
            5: F(rng.randint(-2, 2), rng.randint(1, 2)),
        })
    ranked = []  # (row, (best key, column)) per ranking in the current matrix
    moves = set()  # how a row's best moved between two rankings
    best_of_row = NormAwareElimination._best_of_row

    def recording(self, i):
        out = best_of_row(self, i)
        ranked.append((i, (-out[0], out[1])))
        return out

    monkeypatch.setattr(NormAwareElimination, "_best_of_row", recording)
    shapes = [(5, 5)] * 60 + [(40, 8)] * 15
    for field in (Q5, FieldSpec.trivial()):
        for max_r, max_c in shapes:
            nr, nc = rng.randint(1, max_r), rng.randint(1, max_c)
            mat = M([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
            row_w = [weight() for _ in range(nr)]
            col_w = [weight() for _ in range(nc)]
            if rng.random() < 0.3:
                col_w = [col_w[0]] * nc  # many exact ties
            elim = NormAwareElimination(field, S(mat), row_w, col_w)
            pivots, scores = reference_elimination(field, mat, row_w, col_w)
            assert elim.pivots == pivots
            assert pivot_scores(elim) == scores
            # Jordan-reduced with unit pivots; every other row is empty.
            pivot_cols = {j for _, j in pivots}
            pivot_rows = {i for i, _ in pivots}
            for i, j in pivots:
                row = elim.srows[i]
                assert row[j] == 1
                assert all(c == j or c not in pivot_cols for c in row)
            assert all(
                not r for i, r in enumerate(elim.srows) if i not in pivot_rows
            )
            last = {}
            for i, (key, col) in ranked:
                if i in last:
                    old_key, old_col = last[i]
                    assert key <= old_key
                    if key < old_key:
                        moves.add("falls")
                    elif col != old_col:
                        moves.add("moves column")
                last[i] = key, col
            ranked.clear()
    assert moves == {"falls", "moves column"}


def test_norm_aware_pivot_priorities_are_ints(monkeypatch):
    """The pivot heap orders plain ints: every priority that `_pivot_loop`
    receives from the norm-aware elimination, in either field mode, with
    weights mixing two primes with fractional exponents."""
    priorities = []
    pivot_loop = linalg._pivot_loop

    def recording(rows, rank):
        def ranked(i):
            out = rank(i)
            priorities.append(out[0])
            return out
        return pivot_loop(rows, ranked)

    monkeypatch.setattr(linalg, "_pivot_loop", recording)
    rng = random.Random(23)
    entries = [0, 0, 1, -2, 3, 5, -10, 25, F(1, 5), F(7, 5), 50]
    for field in (Q5, FieldSpec.trivial()):
        for _ in range(20):
            nr, nc = rng.randint(1, 8), rng.randint(1, 6)
            mat = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
            weights = [
                NormValue({2: F(rng.randint(-3, 3), rng.randint(1, 3)),
                           5: F(rng.randint(-2, 2), rng.randint(1, 2))})
                for _ in range(nr + nc)
            ]
            NormAwareElimination(field, S(mat), weights[:nr], weights[nr:])
    assert priorities
    assert all(type(p) is int for p in priorities)


def test_norm_aware_rejects_columns_beyond_the_weights():
    with pytest.raises(ValueError):
        NormAwareElimination(Q5, [{2: F(1)}], unit_weights(1), unit_weights(2))


def test_norm_aware_rejects_negative_columns():
    # Python would read column -1 as the last weight and pivot there.
    col_w = [NormValue.one(), of_rational(5)]
    with pytest.raises(ValueError):
        NormAwareElimination(Q5, [{-1: 1}], unit_weights(1), col_w)


def reference_sparse_rref(rows):
    """The fewest-nonzeros-first elimination that rescans every pending row
    for each pivot; kept as the reference for `sparse_rref`."""
    work = [dict(r) for r in rows if r]
    done = []  # (pivot column, row)
    while work:
        best = min(range(len(work)), key=lambda i: len(work[i]))
        row = work.pop(best)
        c = min(row)
        pv = row[c]
        row = {j: v / pv for j, v in row.items()}
        for other in work + [r for _, r in done]:
            f = other.get(c)
            if f is None:
                continue
            for j, v in row.items():
                nv = other.get(j, F(0)) - f * v
                if nv:
                    other[j] = nv
                else:
                    other.pop(j, None)
        done.append((c, row))
        work = [r for r in work if r]
    done.sort(key=lambda t: t[0])
    return [r for _, r in done], [c for c, _ in done]


def random_sparse_rows(rng):
    """Sparse rows with empty, duplicate and dependent rows mixed in."""
    nr, nc = rng.randint(0, 14), rng.randint(1, 12)
    density = rng.choice([0.15, 0.35, 0.7])
    values = [1, -1, 2, 3, -5, F(1, 2), F(-3, 5), 25]
    rows = [
        {j: F(rng.choice(values)) for j in range(nc) if rng.random() < density}
        for _ in range(nr)
    ]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["empty", "duplicate", "combination"])
        if kind == "empty" or not rows:
            rows.insert(rng.randint(0, len(rows)), {})
            continue
        a, b = rng.choice(rows), rng.choice(rows)
        if kind == "duplicate":
            new = dict(a)
        else:
            fa, fb = F(rng.randint(-3, 3)), F(rng.randint(1, 3))
            new = {}
            for j in set(a) | set(b):
                v = fa * a.get(j, 0) + fb * b.get(j, 0)
                if v:
                    new[j] = v
        rows.insert(rng.randint(0, len(rows)), new)
    return rows, nc


def test_sparse_rref_matches_reference():
    rng = random.Random(29)
    for _ in range(600):
        rows, _ = random_sparse_rows(rng)
        before = [dict(r) for r in rows]
        got = sparse_rref(rows)
        assert got == reference_sparse_rref(rows)
        assert rows == before  # the input rows are left untouched
        reduced, pivots = got
        # Unit pivots, each the first nonzero of its row and cleared elsewhere.
        for row, c in zip(reduced, pivots):
            assert min(row) == c and row[c] == 1
            assert all(c not in other for other in reduced if other is not row)


def _sympy_rank(sympy, rows, ncols):
    dense = [[sympy.Rational(x.numerator, x.denominator) for x in
              [row.get(j, F(0)) for j in range(ncols)]] for row in rows]
    return sympy.Matrix(len(rows), ncols, [x for r in dense for x in r]).rank()


def test_ranks_match_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(60):
        rows, nc = random_sparse_rows(rng)
        expected = _sympy_rank(sympy, rows, nc)
        assert rank(rows) == expected
        assert len(kernel_basis(rows, nc)) == nc - expected
        elim = NormAwareElimination(
            Q5, rows, unit_weights(len(rows)), unit_weights(nc)
        )
        assert elim.rank == expected


def _cover_complexes():
    disc = Polyradius(Q5, ("x",), (NormValue.one(),))
    A = free_affinoid(disc)
    x = parse_element("x", A.ambient)
    v1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, -1)])
    v2 = laurent_localization(A, g=[x], g_radii=[of_rational(5)])
    w1 = weierstrass_localization(A, [x], [NormValue.prime_power(5, -2)])
    w2 = laurent_localization(
        A, f=[x], f_radii=[NormValue.prime_power(5, -1)],
        g=[x], g_radii=[of_rational(25)],
    )
    yield build_complex(CoverData(A, (v1, v2)), 2)
    yield build_complex(CoverData(A, (w1, w2, v2)), 3)


def test_ranks_match_sympy_on_cover_differentials():
    sympy = pytest.importorskip("sympy")
    checked = 0
    for cx in _cover_complexes():
        for n in sorted(cx.components):
            m = cx.matrix(n, 8)
            expected = _sympy_rank(sympy, m.entries, m.source.dim)
            assert rank(m.entries) == expected
            assert len(kernel_basis(m.entries, m.source.dim)) == (
                m.source.dim - expected
            )
            elim = NormAwareElimination(
                Q5, m.entries, m.target.weights, m.source.weights
            )
            assert elim.rank == expected
            checked += 1
    assert checked == 5
