"""Exact linear algebra over Q.

Everything here is fraction-free integer or plain rational arithmetic;
there are no floating-point operations and no rank thresholds anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Hashable, Mapping, Optional, Sequence


def integer_det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant, fraction-free."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if a[col][col] == 0:
            for r in range(col + 1, n):
                if a[r][col]:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[col][col]
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# The inverse of a square integer matrix as (adj, d): an integer matrix
# and a positive integer with matrix^-1 = adj / d.
ScaledInverse = tuple[tuple[tuple[int, ...], ...], int]


def rational_inverse(matrix: Sequence[Sequence[int]]) -> Optional[ScaledInverse]:
    """The exact inverse of a square integer matrix as (adj, d), or None
    when the matrix is singular; d is the least positive integer that
    clears the inverse's denominators.  Fraction-free Gauss-Jordan on
    [A | I]: every entry stays a minor of [A | I], so each Bareiss
    division by the previous pivot is exact.  Callers that solve against
    one fixed matrix many times keep the result (the basis image matrix
    of a context stores it)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot_line = a[col]
        pivot = pivot_line[col]
        for r in range(n):
            if r != col:
                factor = a[r][col]
                a[r] = [
                    (pivot * v - factor * p) // prev for v, p in zip(a[r], pivot_line)
                ]
        prev = pivot
    # the left block is now prev * I, so A^-1 = right / prev; reduce to
    # lowest terms with d > 0
    d = prev
    adj = [row[n:] for row in a]
    g = gcd(d, *(v for row in adj for v in row))
    if d < 0:
        g = -g
    return tuple(tuple(v // g for v in row) for row in adj), d // g


def solve_rational(
    inverse: ScaledInverse, rhs: Sequence[int]
) -> tuple[list[int], int]:
    """Solve M x = rhs exactly for an integer rhs, given inverse =
    rational_inverse(M): returns (numerators, d) with x = numerators / d.

    A substitution: one integer dot product per row of adj, which is
    O(n^2) integer work and builds no Fraction.
    """
    adj, d = inverse
    if len(rhs) != len(adj):
        raise ValueError("right-hand side has wrong length")
    return [sum(map(mul, row, rhs)) for row in adj], d


def _integer_row(row: Mapping[Hashable, Fraction | int]) -> dict[Hashable, int]:
    scale = 1
    for v in row.values():
        if isinstance(v, Fraction):
            scale = lcm(scale, v.denominator)
    out = {}
    for col, v in row.items():
        iv = int(v * scale) if isinstance(v, Fraction) else v * scale
        if iv:
            out[col] = iv
    return out


def _content_reduce(row: dict[Hashable, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for col in row:
            row[col] //= g


class SparseExactRREF:
    """Incrementally maintained reduced row-echelon form over Q.

    Rows are sparse integer vectors indexed by mutually comparable
    hashable column keys; the pivot of a row is its largest column.
    Keeping the form fully reduced means every stored row touches only
    its own pivot plus non-pivot columns, which keeps the rows short and
    insertions cheap.  The library no longer calls it: the tests use it to
    cross-check the kernel certificate, and the benchmark's tracer wraps
    ``add_row`` by name.
    """

    def __init__(self):
        self._rows: dict[Hashable, dict[Hashable, int]] = {}
        self._touch: dict[Hashable, set[Hashable]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _index(self, row: dict, pivot: Hashable) -> None:
        for col in row:
            self._touch.setdefault(col, set()).add(pivot)

    def _unindex(self, row: dict, pivot: Hashable) -> None:
        for col in row:
            owners = self._touch.get(col)
            if owners:
                owners.discard(pivot)
                if not owners:
                    del self._touch[col]

    @staticmethod
    def _eliminate(target: dict, prow: dict, col: Hashable) -> None:
        a = prow[col]
        b = target[col]
        for c in list(target):
            target[c] *= a
        for c, v in prow.items():
            nv = target.get(c, 0) - v * b
            if nv:
                target[c] = nv
            else:
                target.pop(c, None)
        _content_reduce(target)

    def add_row(self, row: Mapping[Hashable, Fraction | int]) -> bool:
        """Reduce a row against the current form; returns True when it
        increases the rank."""
        r = _integer_row(row)
        if not r:
            return False
        for col in [c for c in r if c in self._rows]:
            if col in r:
                self._eliminate(r, self._rows[col], col)
        if not r:
            return False
        pivot = max(r)
        _content_reduce(r)
        if r[pivot] < 0:
            for c in r:
                r[c] = -r[c]
        for other_pivot in list(self._touch.get(pivot, ())):
            other = self._rows[other_pivot]
            self._unindex(other, other_pivot)
            self._eliminate(other, r, pivot)
            self._index(other, other_pivot)
        self._rows[pivot] = r
        self._index(r, pivot)
        return True
