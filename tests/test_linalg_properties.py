"""Integer entries take the same elimination as their Fraction copies;
skipped without hypothesis.

Row values stay `int` while they are integral, and `scalar.exact_div`
divides them.  On random sparse matrices of `int` entries, or of `int` and
`Fraction` entries mixed, every elimination must give the values it gives
on the same matrix written in `Fraction`s, and never a float.
"""

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
from afnd.scalar import FieldSpec, NormValue  # noqa: E402

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
    rem = reduce_against(vec, reduced, pivots)
    assert rem == reduce_against(as_fractions([vec])[0], *sparse_rref(copies))
    assert_exact(reduced, kernel, [rem])

    field = data.draw(st.sampled_from(FIELDS))
    row_w = [data.draw(weights) for _ in rows]
    col_w = [data.draw(weights) for _ in range(nc)]
    fast = NormAwareElimination(field, rows, row_w, col_w)
    slow = NormAwareElimination(field, copies, row_w, col_w)
    assert fast.pivots == slow.pivots
    assert fast.pivot_scores == slow.pivot_scores
    assert fast.srows == slow.srows
    assert_exact(fast.srows)
