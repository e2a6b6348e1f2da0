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
    """The row times the lcm of its denominators, zero entries dropped."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {col: int(v * scale) for col, v in row.items() if v}


def _eliminate(target: dict, prow: dict, col: Hashable) -> dict:
    """target with its col entry cleared by prow, over the gcd of what is
    left; {} when nothing is.  prow's col entry is positive and only
    scales target, so target keeps its sign at every other column."""
    a, b = prow[col], target[col]
    out = {c: a * v for c, v in target.items()}
    for c, v in prow.items():
        value = out.get(c, 0) - b * v
        if value:
            out[c] = value
        else:
            del out[c]
    g = gcd(*out.values())
    return out if g == 1 else {c: v // g for c, v in out.items()}


class SparseExactRREF:
    """Reduced row-echelon form over Q, built one row at a time.

    Rows are sparse integer vectors indexed by mutually comparable
    hashable column keys; the pivot of a row is its largest column.
    Every stored row is primitive, positive at its pivot and zero in every
    other row's pivot column, so a new row is reduced by the stored rows
    its own columns name, and a new pivot is cleared from the stored rows
    by scanning them.  The library no longer calls it: the tests use it
    to cross-check the kernel certificate at n <= 5, and the benchmark's
    tracer wraps ``add_row`` by name.
    """

    def __init__(self):
        self._rows: dict[Hashable, dict[Hashable, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add_row(self, row: Mapping[Hashable, Fraction | int]) -> bool:
        """Reduce a row against the current form; returns True when it
        increases the rank."""
        r = _integer_row(row)
        for col in [c for c in r if c in self._rows]:
            r = _eliminate(r, self._rows[col], col)
        if not r:
            return False
        pivot = max(r)
        g = gcd(*r.values())
        g = g if r[pivot] > 0 else -g  # stored primitive, positive at the pivot
        r = {c: v // g for c, v in r.items()}
        for other in [p for p, stored in self._rows.items() if pivot in stored]:
            self._rows[other] = _eliminate(self._rows[other], r, pivot)
        self._rows[pivot] = r
        return True
