"""Integer entries take the same elimination as their Fraction copies,
singleton peeling changes no kernel basis, and the norm-aware pivot
priorities order like the scores; skipped without hypothesis.

Row values stay `int` while they are integral, and `scalar.exact_div`
divides them.  On random sparse matrices of `int` entries, or of `int` and
`Fraction` entries mixed, every elimination must give the values it gives
on the same matrix written in `Fraction`s, and never a float.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from afnd.linalg import (  # noqa: E402
    NormAwareElimination,
    kernel_basis,
    reduce_against,
    sparse_rref,
)
from afnd.scalar import FieldSpec, NormValue, padic_valuation  # noqa: E402
from helpers import pivot_scores  # noqa: E402

FIELDS = [FieldSpec.padic(5), FieldSpec.trivial()]
# Valuations -1..2 at 5, units, and zeros for sparsity.
INTS = [0, 0, 0, 1, -1, 2, -3, 5, -10, 25, 50, 7]
FRACTIONS = [Fraction(1, 5), Fraction(-7, 5), Fraction(3, 2), Fraction(10, 3)]
weights = st.builds(
    lambda a, b, c, d: NormValue({2: Fraction(a, b), 5: Fraction(c, d)}),
    st.integers(-2, 2), st.integers(1, 2), st.integers(-2, 2), st.integers(1, 2),
)


@st.composite
def matrices(draw):
    """(rows, ncols): sparse rows of ints, or of ints and Fractions mixed."""
    nr, nc = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    values = INTS + (FRACTIONS if draw(st.booleans()) else [])
    rows = []
    for _ in range(nr):
        dense = draw(st.lists(st.sampled_from(values), min_size=nc, max_size=nc))
        rows.append({j: v for j, v in enumerate(dense) if v})
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))  # a duplicate row
    return rows, nc


def as_fractions(rows):
    return [{j: Fraction(v) for j, v in r.items()} for r in rows]


def assert_exact(*row_lists):
    for rows in row_lists:
        for r in rows:
            assert all(type(v) in (int, Fraction) for v in r.values())


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_int_entries_eliminate_like_their_fraction_copies(case, data):
    rows, nc = case
    copies = as_fractions(rows)
    reduced, pivots = sparse_rref(rows)
    assert (reduced, pivots) == sparse_rref(copies)
    kernel = kernel_basis(rows, nc)
    assert kernel == kernel_basis(copies, nc)
    vec = rows[0] if rows else {}
    rem = reduce_against(vec, dict(zip(pivots, reduced)))
    copy_rows, copy_pivots = sparse_rref(copies)
    assert rem == reduce_against(
        as_fractions([vec])[0], dict(zip(copy_pivots, copy_rows))
    )
    assert_exact(reduced, kernel, [rem])

    field = data.draw(st.sampled_from(FIELDS))
    row_w = [data.draw(weights) for _ in rows]
    col_w = [data.draw(weights) for _ in range(nc)]
    fast = NormAwareElimination(field, rows, row_w, col_w)
    slow = NormAwareElimination(field, copies, row_w, col_w)
    assert fast.pivots == slow.pivots
    assert pivot_scores(fast) == pivot_scores(slow)
    assert fast.srows == slow.srows
    assert_exact(fast.srows)


# Weights over 2, 3 and 5 with fractional exponents, and nonzero entries
# 2^a 3^b 5^c with a sign, against fields whose prime is each of them.
PRIMES = (2, 3, 5)
PRIORITY_FIELDS = [FieldSpec.padic(p) for p in PRIMES] + [FieldSpec.trivial()]
EXPONENTS = [0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2),
             Fraction(2, 3), Fraction(-1, 4)]
three_prime_weights = st.builds(
    lambda es: NormValue({p: e for p, e in zip(PRIMES, es)}),
    st.tuples(*[st.sampled_from(EXPONENTS)] * 3),
)
entries = st.builds(
    lambda sign, a, b, c: sign * Fraction(2) ** a * Fraction(3) ** b
    * Fraction(5) ** c,
    st.sampled_from([1, -1]), st.integers(-2, 2), st.integers(-2, 2),
    st.integers(-2, 2),
)


def reduce_in_pivot_order(vec, rows, pivots):
    """The reference reduction: one pass over every row, in pivot order,
    each clearing its pivot where the running remainder has one."""
    out = dict(vec)
    for c, row in zip(pivots, rows):
        f = out.get(c)
        if f:
            for j, v in row.items():
                nv = out.get(j, 0) - f * v
                if nv:
                    out[j] = nv
                else:
                    out.pop(j, None)
    return out


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_reduction_over_a_pivot_map_is_order_free(case, data):
    """`reduce_against` over the Jordan-reduced rows of `sparse_rref` and of
    `NormAwareElimination`, keyed by pivot in a shuffled order, gives the
    remainder of the pass over every row in pivot order."""
    rows, nc = case
    field = data.draw(st.sampled_from(FIELDS))
    elim = NormAwareElimination(
        field, rows, [data.draw(weights) for _ in rows],
        [data.draw(weights) for _ in range(nc)],
    )
    # A combination of the rows, so that some vectors reduce to zero, plus
    # free noise.
    vec = data.draw(st.dictionaries(
        st.integers(0, nc - 1), st.sampled_from(INTS + FRACTIONS), max_size=nc
    ))
    for r in rows:
        f = data.draw(st.sampled_from(INTS))
        for j, v in r.items():
            vec[j] = vec.get(j, 0) + f * v
    vec = {j: v for j, v in vec.items() if v}
    for reduced, pivots in (
        sparse_rref(rows),
        ([elim.srows[i] for i, _ in elim.pivots], [j for _, j in elim.pivots]),
    ):
        keyed = dict(data.draw(st.permutations(list(zip(pivots, reduced)))))
        rem = reduce_against(vec, keyed)
        assert rem == reduce_in_pivot_order(vec, reduced, pivots)
        assert not set(rem) & set(pivots)
        assert_exact([rem])


def reference_kernel_basis(rows, ncols):
    """`kernel_basis` without singleton peeling: the reduced echelon form of
    every row, one vector per free column."""
    reduced, pivots = sparse_rref(rows)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                basis[j][pc] = -v
    return list(basis.values())


@st.composite
def peelable_matrices(draw):
    """(rows, ncols): a chain of rows, each nonzero at its own column and
    at some columns earlier in a drawn order, so that the chain peels
    completely; rows of two or more entries beside it; empty rows; and
    columns that no row touches.  The chain covers every touched column,
    some of them, or none (then no row is a singleton)."""
    nc = draw(st.integers(1, 7))
    values = [v for v in INTS + FRACTIONS if v]
    order = draw(st.permutations(range(nc)))
    rows = []
    chain = draw(st.one_of(st.just(nc), st.integers(0, nc), st.just(0)))
    for k in range(chain):
        earlier = draw(st.lists(st.sampled_from(order[:k]), unique=True)) if k else []
        rows.append({c: draw(st.sampled_from(values)) for c in earlier + [order[k]]})
    if nc >= 2:
        for _ in range(draw(st.integers(0, 4))):
            cols = draw(st.lists(
                st.integers(0, nc - 1), min_size=2, max_size=nc, unique=True
            ))
            rows.append({c: draw(st.sampled_from(values)) for c in sorted(cols)})
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), nc + draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(st.one_of(peelable_matrices(), matrices()))
def test_kernel_basis_matches_the_unpeeled_reference(case):
    """Peeling singleton rows changes no vector of the kernel basis, no
    value, and no key order: free column first, then pivots ascending."""
    rows, ncols = case
    kernel = kernel_basis(rows, ncols)
    ref = reference_kernel_basis(rows, ncols)
    assert kernel == ref
    assert [list(v) for v in kernel] == [list(v) for v in ref]
    assert_exact(kernel)


def reference_key(field, row_w, col_w, entry, L):
    """score^L = (|entry| * row_w / col_w)^L as a Fraction."""
    out = Fraction(1)
    for p, e in row_w.exponents.items():
        out *= Fraction(p) ** (e * L).numerator
    for p, e in col_w.exponents.items():
        out /= Fraction(p) ** (e * L).numerator
    if field.mode == "p-adic":
        out /= Fraction(field.p) ** (padic_valuation(entry, field.p) * L)
    return out


def sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PRIORITY_FIELDS),
    st.lists(three_prime_weights, min_size=1, max_size=3),
    st.lists(three_prime_weights, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), entries),
             min_size=2, max_size=2),
)
def test_pivot_priorities_order_like_the_rational_key(
    field, row_w, col_w, triples
):
    rows = [{0: 1} for _ in row_w]
    elim = NormAwareElimination(field, rows, row_w, col_w)
    L = math.lcm(*(e.denominator for w in row_w + col_w
                   for e in w.exponents.values()))
    keys, refs = [], []
    for i, j, a in triples:
        i, j = i % len(row_w), j % len(col_w)
        keys.append(elim._key(i, j, a))
        refs.append(reference_key(field, row_w[i], col_w[j], a, L))
    assert all(type(k) is int for k in keys)
    assert sign(keys[0] - keys[1]) == sign(refs[0] - refs[1])


@st.composite
def weighted_matrices(draw):
    """(field, rows, row weights, column weights): sparse rows of entries
    2^a 3^b 5^c with a sign, weights over 2, 3 and 5 with integral and
    fractional exponents, against each prime's field and the trivial one."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [
        {j: draw(entries) for j in draw(st.lists(
            st.integers(0, nc - 1), max_size=nc, unique=True
        ))}
        for _ in range(nr)
    ]
    return (
        draw(st.sampled_from(PRIORITY_FIELDS)),
        rows,
        [draw(three_prime_weights) for _ in rows],
        [draw(three_prime_weights) for _ in range(nc)],
    )


@settings(max_examples=300, deadline=None)
@given(weighted_matrices())
def test_smallest_score_is_the_last_and_least_pivot_score(case):
    """Greedy scores are non-increasing, so the last pivot's score, which
    `smallest_score` computes alone, is the least of them all."""
    field, rows, row_w, col_w = case
    elim = NormAwareElimination(field, rows, row_w, col_w)
    smallest = elim.smallest_score()
    scores = pivot_scores(elim)
    if scores:
        assert smallest == min(scores) == scores[-1]
        assert str(smallest) == str(scores[-1])
    else:
        assert smallest == NormValue.zero()
