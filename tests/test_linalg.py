"""Exact sparse linear algebra and the norm-aware elimination."""

import random
from fractions import Fraction

from afnd.linalg import (
    NormAwareElimination,
    kernel_basis,
    rank,
    reduce_against,
    rref,
    sparse_rref,
    vector_norm,
)
from afnd.scalar import FieldSpec, NormValue, scalar_norm

Q5 = FieldSpec.padic(5)
F = Fraction


def M(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_and_rank():
    rows, pivots = rref(M([[1, 2], [2, 4], [0, 1]]))
    assert pivots == [0, 1]
    assert rows == M([[1, 0], [0, 1]])
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank([]) == 0


def test_kernel_basis():
    ker = kernel_basis(M([[1, 2, 3]]))
    assert len(ker) == 2
    for vec in ker:
        assert sum(F(c) * v for c, v in zip([1, 2, 3], vec)) == 0


def test_kernel_matches_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        ker = kernel_basis(mat)
        assert len(ker) == nc - rank(mat)
        for vec in ker:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_sparse_rref_reduce_against():
    rows, pivots = sparse_rref([{0: F(2), 1: F(4)}, {1: F(1), 2: F(1)}])
    assert pivots == [0, 1]
    rem = reduce_against({0: F(2), 1: F(5), 2: F(0)}, rows, pivots)
    # The remainder is supported away from the pivot columns.
    assert all(c not in pivots for c in rem)


def test_vector_norm():
    w = [NormValue.one(), NormValue.of_rational(5)]
    assert vector_norm(Q5, [F(5), F(0)], w) == NormValue.prime_power(5, -1)
    assert vector_norm(Q5, [F(0), F(1)], w) == NormValue.of_rational(5)
    assert vector_norm(Q5, [F(0), F(0)], w).is_zero


def unit_weights(n):
    return [NormValue.one()] * n


def test_norm_aware_pivot_scores():
    # Diagonal matrix diag(1, 5, 25) over Q_5: singular values 1, 1/5, 1/25.
    mat = M([[1, 0, 0], [0, 5, 0], [0, 0, 25]])
    elim = NormAwareElimination(Q5, mat, unit_weights(3), unit_weights(3))
    assert elim.rank == 3
    assert [str(s) for s in elim.pivot_scores] == ["1", "5^-1", "5^-2"]
    assert elim.smallest_score() == NormValue.prime_power(5, -2)


def test_norm_aware_respects_weights():
    # Same matrix, but the second domain coordinate carries weight 1/5,
    # which promotes the 5-entry to score 1.
    mat = M([[1, 0], [0, 5]])
    col_w = [NormValue.one(), NormValue.prime_power(5, -1)]
    elim = NormAwareElimination(Q5, mat, unit_weights(2), col_w)
    assert [str(s) for s in elim.pivot_scores] == ["1", "1"]


def test_norm_aware_solve():
    mat = M([[1, 1], [0, 5]])
    elim = NormAwareElimination(Q5, mat, unit_weights(2), unit_weights(2))
    x = elim.solve([F(2), F(5)])
    assert x is not None
    assert [mat[i][0] * x[0] + mat[i][1] * x[1] for i in range(2)] == [F(2), F(5)]
    assert elim.solve([F(0), F(0)]) == [F(0), F(0)]


def test_norm_aware_solve_inconsistent():
    mat = M([[1, 0], [1, 0]])
    elim = NormAwareElimination(Q5, mat, unit_weights(2), unit_weights(2))
    assert elim.solve([F(1), F(2)]) is None


def test_norm_aware_multi_prime_agrees_with_single():
    # Mixed-prime weights exercise the factored-norm scoring path; ranks
    # and pivot score multisets must match a plain rational rank check.
    rng = random.Random(11)
    for _ in range(10):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[F(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
        row_w = [NormValue.prime_power(3, rng.randint(-1, 1)) for _ in range(nr)]
        col_w = [NormValue.prime_power(5, rng.randint(-1, 1)) for _ in range(nc)]
        elim = NormAwareElimination(Q5, mat, row_w, col_w)
        assert elim.rank == rank(mat)


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


def test_norm_aware_matches_reference_on_two_prime_weights():
    # Weights 2^(a/b) * 5^(c/d) mix the primes with rational exponents; the
    # entries carry 5-adic valuations from -1 to 2, with repeated scores.
    rng = random.Random(17)
    entries = [0, 0, 1, -2, 3, 5, -10, 25, F(1, 5), F(7, 5), 50]
    def weight():
        return NormValue({
            2: F(rng.randint(-3, 3), rng.randint(1, 3)),
            5: F(rng.randint(-2, 2), rng.randint(1, 2)),
        })
    for field in (Q5, FieldSpec.trivial()):
        for _ in range(60):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            mat = M([[rng.choice(entries) for _ in range(nc)] for _ in range(nr)])
            row_w = [weight() for _ in range(nr)]
            col_w = [weight() for _ in range(nc)]
            if rng.random() < 0.3:
                col_w = [col_w[0]] * nc  # many exact ties
            elim = NormAwareElimination(field, mat, row_w, col_w)
            pivots, scores = reference_elimination(field, mat, row_w, col_w)
            assert elim.pivots == pivots
            assert elim.pivot_scores == scores
