"""Exact sparse linear algebra over the rationals, with ultrametric pivoting.

Matrices are lists of sparse rows: one dict {column: value} per row, zero
entries absent, and the column count passed alongside where it matters.
Values are `int` or `Fraction`, never float: an integral value is an `int`,
as a `TateElement` coefficient already is, and every division of row values
goes through `scalar.exact_div`, which returns an `int` when the quotient is
integral (`/` on two ints would give a float).  Sums and products of ints
stay ints, so an integer matrix is eliminated in `int` arithmetic until a
pivot that does not divide its row brings in a fraction.
Every elimination runs one pivot loop, `_pivot_loop`: a lazy heap hands out
the next pivot, and the Gauss-Jordan step `_clear_column` scales the pivot
row to 1 and clears its column from the other rows, found through a
column -> rows index.  Two pivot rules drive the loop:

* `sparse_rref`, the fully reduced row echelon form, for ranks, kernels and
  span membership.  Rows are taken fewest nonzeros first to limit fill-in;
  the result is unique for the row space, so that order cannot change any
  answer;
* `NormAwareElimination`, for everything that certifies a norm: pivots are
  chosen to maximize |entry| * row_weight / col_weight, ties broken by
  smallest row index then smallest column index.  For weighted orthogonal
  spaces over a non-Archimedean field the pivot scores are the exact
  singular values of the map.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from afnd.scalar import (
    FieldSpec, NormValue, Rational, exact_div, padic_valuation, scalar_norm
)

SparseRow = dict[int, Rational]


def vector_norm(
    field: FieldSpec, coords: Sequence[Rational], weights: Sequence[NormValue]
) -> NormValue:
    """max_i |c_i| * w_i, the norm in a weighted orthogonal space."""
    best = NormValue.zero()
    for c, w in zip(coords, weights):
        if c:
            v = scalar_norm(field, c) * w
            if v > best:
                best = v
    return best


def _column_index(rows: Sequence[SparseRow]) -> dict[int, set[int]]:
    """column -> the rows with a nonzero there."""
    holders: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    return holders


def _clear_column(
    rows: list[SparseRow], holders: dict[int, set[int]], i: int, c: int
) -> set[int]:
    """One Gauss-Jordan step: scale row i to a unit pivot at column c and
    clear c from every other row, keeping `holders` current.  Returns the
    rows that were cleared."""
    pivot = rows[i]
    pv = pivot[c]
    if pv != 1:
        pivot = rows[i] = {j: exact_div(v, pv) for j, v in pivot.items()}
    cleared = holders[c] - {i}
    for o in cleared:
        other = rows[o]
        f = other[c]
        for j, v in pivot.items():
            nv = other.get(j, 0) - f * v
            if nv:
                if j not in other:
                    holders.setdefault(j, set()).add(o)
                other[j] = nv
            elif j in other:
                del other[j]
                holders[j].discard(o)
    return cleared


def _pivot_loop(
    rows: list[SparseRow], rank: Callable[[int], tuple]
) -> list[tuple[int, int, Rational]]:
    """Gauss-Jordan elimination of `rows` in place; returns (row, column,
    entry before scaling) for each pivot, in the order taken.

    `rank(i)` is (priority, column) for a nonempty row i.  Rows are taken
    from a heap, smallest priority and then smallest row first, and pivot
    at their column, or at their first nonzero when it is None (found only
    when the row is taken).  A row that `_clear_column` changes gets a new
    stamp and is pushed again; entries with an old stamp are skipped.
    """
    holders = _column_index(rows)
    stamps = [0] * len(rows)  # -1 once the row is a pivot row
    heap = []
    for i, r in enumerate(rows):
        if r:
            priority, c = rank(i)
            heap.append((priority, i, 0, c))
    heapq.heapify(heap)
    found = []
    while heap:
        _, i, stamp, c = heapq.heappop(heap)
        if stamp != stamps[i]:
            continue
        stamps[i] = -1
        if c is None:
            c = min(rows[i])
        found.append((i, c, rows[i][c]))
        for o in _clear_column(rows, holders, i, c):
            if stamps[o] >= 0:
                stamps[o] += 1
                if rows[o]:
                    priority, oc = rank(o)
                    heapq.heappush(heap, (priority, o, stamps[o], oc))
    return found


def sparse_rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Fully reduced echelon form of sparse rows, pivots normalized to 1.

    Rows are taken fewest nonzeros first (then by input position) to limit
    fill-in.  Each pivot is the first nonzero of its row, so the result is
    the reduced echelon form of the row space, which is unique; the output
    is sorted by pivot column.  The input rows are not modified.
    """
    work = [dict(r) for r in rows]
    found = _pivot_loop(work, lambda i: (len(work[i]), None))
    found.sort(key=lambda f: f[1])
    return [work[i] for i, _, _ in found], [c for _, c, _ in found]


def reduce_against(vec: SparseRow, rows: Sequence[SparseRow], pivots: Sequence[int]) -> SparseRow:
    """Remainder of a sparse vector modulo a reduced row set."""
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


def kernel_basis(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    """Sparse basis of {x : A x = 0} for A with `ncols` columns.

    One vector per free column, in column order, deterministic.
    """
    reduced, pivots = sparse_rref(rows)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    # In a fully reduced row, every entry off the pivot is in a free column.
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                basis[j][pc] = -v
    return list(basis.values())


def _integral_power(w: NormValue, L: int) -> Fraction:
    """w^L as a rational; L must clear every exponent denominator of w."""
    out = Fraction(1)
    for p, e in w.exponents.items():
        out *= Fraction(p) ** (e * L).numerator
    return out


class NormAwareElimination:
    """Greedy ultrametric Gauss-Jordan factorization of one exact matrix.

    The matrix, given as sparse rows, represents a map between weighted
    orthogonal spaces: col_weights on the domain (one per column),
    row_weights on the codomain.  Pivots maximize
    |entry| * row_weight / col_weight, ties broken by smallest row index then
    smallest column index.  After construction, `pivots` lists the (row,
    column) pairs in the order chosen and `srows` holds the Jordan-reduced
    rows: row i of pivot (i, j) has 1 at column j and nothing at any other
    pivot column, and every other row is empty.  `pivot_scores`, the
    singular values in that greedy (non-increasing) order, is computed from
    the kept pivot entries when first read.

    Pivots are chosen on an exact rational key: with L
    the lcm of the denominators of every weight exponent, the key of (i, j)
    is score(i, j)^L = row_w(i)^L * col_w(j)^-L * |a_ij|^L.  x -> x^L is
    strictly increasing and distinct factored values have distinct L-th
    powers, so the key orders and ties exactly as the score does.  The
    factored score is built only for the chosen pivots.
    """

    def __init__(
        self,
        field: FieldSpec,
        rows: Sequence[SparseRow],
        row_weights: Sequence[NormValue],
        col_weights: Sequence[NormValue],
    ):
        self.field = field
        self.srows: list[SparseRow] = [dict(r) for r in rows]
        self.ncols = len(col_weights)
        self.row_weights = list(row_weights)
        self.col_weights = list(col_weights)
        if len(self.row_weights) != len(self.srows) or any(
            r and max(r) >= self.ncols for r in self.srows
        ):
            raise ValueError("weight lists must match the matrix shape")
        # A Macaulay matrix has many columns but few distinct weights, so
        # each power and inverse is computed once per weight.
        distinct = set(self.row_weights + self.col_weights)
        L = self._L = math.lcm(1, *(
            e.denominator for w in distinct for e in w.exponents.values()
        ))
        power = {w: _integral_power(w, L) for w in distinct}
        inverse = {w: 1 / power[w] for w in set(self.col_weights)}
        self._row_key = [power[w] for w in self.row_weights]
        self._col_key = [inverse[w] for w in self.col_weights]
        found = _pivot_loop(self.srows, self._best_of_row)
        self.pivots = [(i, j) for i, j, _ in found]
        self._pivot_entries = [a for _, _, a in found]

    def _key(self, i: int, j: int, entry: Rational) -> Fraction:
        key = self._row_key[i] * self._col_key[j]
        if self.field.mode == "p-adic":
            v = padic_valuation(entry, self.field.p)
            if v:
                key *= Fraction(self.field.p) ** (-self._L * v)
        return key

    def _best_of_row(self, i: int) -> tuple[Fraction, int]:
        """(-key, column) of the largest key in row i, smallest column first:
        its priority and pivot in `_pivot_loop`.  Pivot columns are cleared
        from every unpivoted row, so each entry of such a row is a candidate."""
        key, neg_col = max(
            (self._key(i, j, a), -j) for j, a in self.srows[i].items()
        )
        return -key, -neg_col

    @cached_property
    def pivot_scores(self) -> list[NormValue]:
        rw, cw = self.row_weights, self.col_weights
        return [
            scalar_norm(self.field, a) * rw[i] / cw[j]
            for (i, j), a in zip(self.pivots, self._pivot_entries)
        ]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def smallest_score(self) -> NormValue:
        return self.pivot_scores[-1] if self.pivot_scores else NormValue.zero()
