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
  singular values of the map.  The heap orders them by one exact `int`
  priority per entry, which orders and ties exactly as the score does.
  A strictness constant reads only the last pivot's score, the one
  `NormValue` score it builds (`smallest_score`).

Both leave Jordan-reduced rows: 1 at the row's pivot, 0 at every other
pivot.  A caller that reduces vectors against them keys the rows by pivot
column, and `reduce_against` then clears only the pivots in a vector's
support, each once, in no particular order.

`kernel_basis` eliminates only what singleton removal leaves (the first
step of structured Gaussian elimination, LaMacchia and Odlyzko 1990): in
one pass over the entries it peels each column that is the only live entry
of some row, since such a column is zero in every kernel vector.  An
injective map peels completely and is certified without a pivot; its
kernel is the same either way, and so, for a fixed column order, is its
reduced basis.  Multiplication by a relator over exact normal forms never
gets here (`complexes.ChainComplex.known_injective` certifies it from the
algebra); peeling is the certificate for relator multiplication over a
level with generic relations, and it shrinks the partial Cech heads.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from afnd.scalar import (
    FieldSpec, NormValue, Rational, exact_div, padic_valuation, scalar_norm
)

SparseRow = dict[int, Rational]


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


def reduce_against(vec: SparseRow, reduced: Mapping[int, SparseRow]) -> SparseRow:
    """Remainder of a sparse vector modulo a Jordan-reduced row set, given
    as pivot column -> row: each row has 1 at its pivot and nothing at any
    other pivot.  So clearing one pivot never touches another, and each
    pivot in the support of `vec` is cleared once with its entry there, in
    any order: the work is over the support of `vec` and the rows it hits,
    not over every row of the set."""
    out = dict(vec)
    for c, f in vec.items():
        row = reduced.get(c)
        if row is not None:
            for j, v in row.items():
                nv = out.get(j, 0) - f * v
                if nv:
                    out[j] = nv
                else:
                    out.pop(j, None)
    return out


def _peel(rows: Sequence[SparseRow], holders: dict[int, set[int]]) -> set[int]:
    """The columns that are zero in every solution of A x = 0, found by
    singleton removal: a row whose only live entry is at column c forces
    x_c = 0, so c is peeled and every row holding it loses a live entry.
    Each row is scanned at most once, when it is taken as a singleton."""
    live = [len(r) for r in rows]
    singletons = [i for i, n in enumerate(live) if n == 1]
    peeled: set[int] = set()
    while singletons:
        i = singletons.pop()
        if live[i] != 1:
            continue
        c = next(j for j in rows[i] if j not in peeled)
        peeled.add(c)
        for o in holders[c]:
            live[o] -= 1
            if live[o] == 1:
                singletons.append(o)
    return peeled


def kernel_basis(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    """Sparse basis of {x : A x = 0} for A with `ncols` columns.

    One vector per free column, in column order, deterministic: the vector
    of free column f is 1 at f, 0 at every other free column, and holds the
    pivots it needs in ascending order after f.

    Singleton rows are peeled first (`_peel`).  A peeled column is zero in
    every kernel vector, so when every column is peeled the kernel is 0 and
    nothing is eliminated; otherwise `sparse_rref` runs on the rows without
    their peeled entries, whose kernel is the same.  The free columns and
    the vector of each are fixed by the kernel and the column order alone,
    so a peeled column is a pivot column and the output is the one the
    reduced echelon form of all of A gives.
    """
    holders = _column_index(rows)
    if holders and (min(holders) < 0 or max(holders) >= ncols):
        raise ValueError("column index outside the matrix")
    peeled = _peel(rows, holders)
    if len(peeled) == ncols:
        return []
    if peeled:
        rows = [
            live for r in rows
            if (live := {j: v for j, v in r.items() if j not in peeled})
        ]
    reduced, pivots = sparse_rref(rows)
    pivot_set = peeled.union(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    # In a fully reduced row, every entry off the pivot is in a free column.
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                basis[j][pc] = -v
    return list(basis.values())


def _p_split(num: int, den: int, p: int) -> tuple[int, Fraction]:
    """(k, f) with num / den = p^k * f and 1 <= f < p, for num, den > 0."""
    k = 0
    while num >= den * p:
        den *= p
        k += 1
    while num < den:
        num *= p
        k -= 1
    return k, Fraction(num, den)


class NormAwareElimination:
    """Greedy ultrametric Gauss-Jordan factorization of one exact matrix.

    The matrix, given as sparse rows, represents a map between weighted
    orthogonal spaces: col_weights on the domain (one per column),
    row_weights on the codomain.  Pivots maximize
    |entry| * row_weight / col_weight, ties broken by smallest row index then
    smallest column index.  After construction, `pivots` lists the (row,
    column) pairs in the order chosen and `srows` holds the Jordan-reduced
    rows: row i of pivot (i, j) has 1 at column j and nothing at any other
    pivot column, and every other row is empty.  The pivot scores are the
    singular values in that greedy (non-increasing) order; none is computed
    with the pivots, and `smallest_score` computes the last one alone from
    its kept pivot entry.

    Pivots are chosen on an exact integer priority.  With L the lcm of the
    denominators of every weight exponent, score(i, j)^L = prod q^(n_q)
    with integer n_q, and x -> x^L is strictly increasing, so score^L
    orders and ties as the score does.  Fix a prime p: the field's, or 2 in
    trivial mode, where every |a| is 1.  Each row and column weight splits
    into its p-part and its p-free part, and for each pair of p-free parts
    F = p^k * f with 1 <= f < p; two distinct F never share f, since their
    ratio is not a power of p.  Then score^L = p^N * f with N the sum of the
    p-exponents and k, and the priority N * K + rank(f), where the K
    distinct f are ranked once by exact comparison, orders and ties exactly
    as score^L.  Only the valuation of the entry changes N per entry.  The
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
            r and (min(r) < 0 or max(r) >= self.ncols) for r in self.srows
        ):
            raise ValueError("weight lists must match the matrix shape")
        p = field.p if field.mode == "p-adic" else 2
        # Each weight object's exponents are read once, keyed by id: hashing
        # a NormValue would hash its exponents.  An equal weight held by
        # another object gives the same integers.
        exponents = {}
        for w in self.row_weights + self.col_weights:
            if id(w) not in exponents:
                exponents[id(w)] = w.exponents
        L = math.lcm(1, *(
            e.denominator for ex in exponents.values() for e in ex.values()
        ))
        split = {}  # id(w) -> (n_p, p-free part of w^L as (num, den))
        for wid, ex in exponents.items():
            n_p, num, den = 0, 1, 1
            for q, e in ex.items():
                n = e.numerator * (L // e.denominator)
                if q == p:
                    n_p = n
                elif n > 0:
                    num *= q**n
                else:
                    den *= q**-n
            split[wid] = n_p, (num, den)
        col_class = {}
        for w in self.col_weights:
            col_class.setdefault(split[id(w)][1], len(col_class))
        # (k, f) of each pair of p-free parts, one list per row part,
        # indexed by column class.
        pairs = {
            r: [_p_split(r[0] * c[1], r[1] * c[0], p) for c in col_class]
            for r in {split[id(w)][1] for w in self.row_weights}
        }
        ranks = {
            f: n for n, f in enumerate(sorted(
                {f for ks in pairs.values() for _, f in ks}
            ))
        }
        K = len(ranks)
        # Per row weight: the priority of each column class at a unit entry,
        # less that column's p-part.
        tables = {}
        for w in self.row_weights:
            if id(w) not in tables:
                n_p, r = split[id(w)]
                tables[id(w)] = [(n_p + k) * K + ranks[f] for k, f in pairs[r]]
        self._row_key = [tables[id(w)] for w in self.row_weights]
        self._col_class = [col_class[split[id(w)][1]] for w in self.col_weights]
        self._col_key = [split[id(w)][0] * K for w in self.col_weights]
        self._entry_step = L * K if field.mode == "p-adic" else 0
        found = _pivot_loop(self.srows, self._best_of_row)
        self.pivots = [(i, j) for i, j, _ in found]
        self._pivot_entries = [a for _, _, a in found]

    def _key(self, i: int, j: int, entry: Rational) -> int:
        """The priority of entry a_ij: larger for a larger score."""
        key = self._row_key[i][self._col_class[j]] - self._col_key[j]
        if self._entry_step:
            key -= self._entry_step * padic_valuation(entry, self.field.p)
        return key

    def _best_of_row(self, i: int) -> tuple[int, int]:
        """(-key, column) of the largest key in row i, smallest column first:
        its priority and pivot in `_pivot_loop`.  Pivot columns are cleared
        from every unpivoted row, so each entry of such a row is a candidate."""
        key, neg_col = max(
            (self._key(i, j, a), -j) for j, a in self.srows[i].items()
        )
        return -key, -neg_col

    def _score(self, k: int) -> NormValue:
        """|entry| * row_weight / col_weight of the k-th pivot."""
        i, j = self.pivots[k]
        return (
            scalar_norm(self.field, self._pivot_entries[k])
            * self.row_weights[i] / self.col_weights[j]
        )

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def smallest_score(self) -> NormValue:
        """The least singular value, zero for a zero map: the last pivot's
        score, since greedy scores are non-increasing.  One product, with no
        other score built."""
        return self._score(-1) if self.pivots else NormValue.zero()
