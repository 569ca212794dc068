"""Exact sparse linear algebra over the rationals, with ultrametric pivoting.

Matrices are lists of sparse rows: one dict {column: Fraction} per row, zero
entries absent, and the column count passed alongside where it matters.  Two
elimination routines are used throughout the package:

* `sparse_rref`, the fully reduced row echelon form with unit pivots, for
  ranks, kernels and span membership.  It is unique for the row space, so
  the pivot order chosen to limit fill-in cannot change any answer;
* norm-aware Gauss-Jordan elimination for everything that certifies a norm:
  pivots are chosen to maximize |entry| * row_weight / col_weight, ties broken
  by smallest row index then smallest column index.  For weighted orthogonal
  spaces over a non-Archimedean field the pivot scores are the exact singular
  values of the map, and back-substituted preimages are norm-minimal.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

from afnd.scalar import FieldSpec, NormValue, padic_valuation, scalar_norm

Row = list[Fraction]
SparseRow = dict[int, Fraction]


def vector_norm(
    field: FieldSpec, coords: Sequence[Fraction], weights: Sequence[NormValue]
) -> NormValue:
    """max_i |c_i| * w_i, the norm in a weighted orthogonal space."""
    best = NormValue.zero()
    for c, w in zip(coords, weights):
        if c:
            v = scalar_norm(field, c) * w
            if v > best:
                best = v
    return best


def sparse_rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Fully reduced echelon form of sparse rows, pivots normalized to 1.

    Rows are taken fewest nonzeros first (then by input position) from a heap
    to limit fill-in; a row whose length changed is pushed again, and stale
    heap entries are skipped.  The rows that hold a pivot column are found
    through a column -> rows index instead of a scan.  Each pivot is the first
    nonzero of its row, so the result is the reduced echelon form of the row
    space, which is unique; the output is sorted by pivot column.  The input
    rows are not modified.
    """
    work = [dict(r) for r in rows if r]
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, r in enumerate(work):
        for j in r:
            holders.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(work)]
    heapq.heapify(heap)
    pending = [True] * len(work)
    done: list[tuple[int, SparseRow]] = []  # (pivot column, row)
    while heap:
        n, i = heapq.heappop(heap)
        row = work[i]
        if not pending[i] or n != len(row):
            continue
        pending[i] = False
        if not row:
            continue
        c = min(row)
        pv = row[c]
        if pv != 1:
            row = work[i] = {j: v / pv for j, v in row.items()}
        for o in holders[c] - {i}:
            other = work[o]
            before = len(other)
            f = other[c]
            for j, v in row.items():
                nv = other.get(j, 0) - f * v
                if nv:
                    if j not in other:
                        holders.setdefault(j, set()).add(o)
                    other[j] = nv
                elif j in other:
                    del other[j]
                    holders[j].discard(o)
            if pending[o] and len(other) != before:
                heapq.heappush(heap, (len(other), o))
        done.append((c, row))
    done.sort(key=lambda t: t[0])
    return [r for _, r in done], [c for c, _ in done]


def reduce_against(vec: SparseRow, rows: Sequence[SparseRow], pivots: Sequence[int]) -> SparseRow:
    """Remainder of a sparse vector modulo a reduced row set."""
    out = dict(vec)
    for c, row in zip(pivots, rows):
        f = out.get(c)
        if f:
            for j, v in row.items():
                nv = out.get(j, Fraction(0)) - f * v
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
    basis = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivot_set}
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
    smallest column index.  After construction, `pivot_scores` holds the
    singular values in the greedy (non-increasing) order and `solve` produces
    norm-minimal preimages.

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
        self.nrows = len(self.srows)
        self.ncols = len(col_weights)
        self.row_weights = list(row_weights)
        self.col_weights = list(col_weights)
        if len(self.row_weights) != self.nrows or any(
            r and max(r) >= self.ncols for r in self.srows
        ):
            raise ValueError("weight lists must match the matrix shape")
        self._setup_scoring()
        # transform accumulates the row operations: transform @ A = reduced rows
        self.transform: list[SparseRow] = [
            {i: Fraction(1)} for i in range(self.nrows)
        ]
        self.pivots: list[tuple[int, int]] = []
        self.pivot_scores: list[NormValue] = []
        self._eliminate()

    def _setup_scoring(self) -> None:
        weights = self.row_weights + self.col_weights
        L = math.lcm(
            1, *(e.denominator for w in weights for e in w.exponents.values())
        )
        self._row_key = [_integral_power(w, L) for w in self.row_weights]
        self._col_key = [1 / _integral_power(w, L) for w in self.col_weights]
        self._L = L

    def _key(self, i: int, j: int, entry: Fraction) -> Fraction:
        key = self._row_key[i] * self._col_key[j]
        if self.field.mode == "p-adic":
            v = padic_valuation(entry, self.field.p)
            if v:
                key *= Fraction(self.field.p) ** (-self._L * v)
        return key

    def _best_of_row(self, i: int, used_cols: set[int]):
        best = None
        best_col = None
        for j, entry in self.srows[i].items():
            if j in used_cols:
                continue
            s = self._key(i, j, entry)
            if best is None or s > best or (s == best and j < best_col):
                best, best_col = s, j
        return best, best_col

    def _eliminate(self) -> None:
        used_cols: set[int] = set()
        active = [i for i in range(self.nrows) if self.srows[i]]
        cache = {i: self._best_of_row(i, used_cols) for i in active}
        while True:
            pick = None
            pick_score = None
            for i in active:
                s, _ = cache[i]
                if s is None:
                    continue
                if pick is None or s > pick_score:
                    pick, pick_score = i, s
            if pick is None:
                break
            i = pick
            j = cache[i][1]
            used_cols.add(j)
            active.remove(i)
            pv = self.srows[i][j]
            self.pivots.append((i, j))
            self.pivot_scores.append(
                scalar_norm(self.field, pv)
                * self.row_weights[i]
                / self.col_weights[j]
            )
            row = self.srows[i]
            trow = self.transform[i]
            touched = [
                i2 for i2 in range(self.nrows)
                if i2 != i and j in self.srows[i2]
            ]
            for i2 in touched:
                f = self.srows[i2][j] / pv
                tgt = self.srows[i2]
                for jj, v in row.items():
                    nv = tgt.get(jj, Fraction(0)) - f * v
                    if nv:
                        tgt[jj] = nv
                    else:
                        tgt.pop(jj, None)
                ttgt = self.transform[i2]
                for jj, v in trow.items():
                    nv = ttgt.get(jj, Fraction(0)) - f * v
                    if nv:
                        ttgt[jj] = nv
                    else:
                        ttgt.pop(jj, None)
            refresh = set(touched) & set(active)
            refresh.update(
                i2 for i2 in active if cache[i2][1] == j
            )
            for i2 in refresh:
                cache[i2] = self._best_of_row(i2, used_cols)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def row(self, i: int) -> SparseRow:
        return self.srows[i]

    def smallest_score(self) -> NormValue:
        return self.pivot_scores[-1] if self.pivot_scores else NormValue.zero()

    def apply_transform(self, b: Sequence[Fraction]) -> Row:
        out = []
        for row in self.transform:
            total = Fraction(0)
            for k, t in row.items():
                if b[k]:
                    total += t * b[k]
            out.append(total)
        return out

    def solve(self, b: Sequence[Fraction]) -> Row | None:
        """One solution of A x = b (free coordinates zero), or None."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has the wrong length")
        tb = self.apply_transform(b)
        pivot_rows = {i for i, _ in self.pivots}
        for i in range(self.nrows):
            if i not in pivot_rows and tb[i] != 0:
                return None
        x = [Fraction(0)] * self.ncols
        for i, j in self.pivots:
            x[j] = tb[i] / self.srows[i][j]
        return x
