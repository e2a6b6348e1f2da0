"""A fixed calibration loop that measures the speed of the current process.

On shared hosts the same code runs at very different speeds from one
process to the next: back-to-back ``verify`` samples took 1.1 to 2.1 s,
and the medians of consecutive 30 s runs spread by 25 to 46%.  A
calibration loop run in the same process just before and just after a
sample slows down with it, so the benchmark reports times scaled to a
reference host, one on which ``calibrate()`` takes REFERENCE_S.

The loop does the kind of work tworow does, exact Gauss-Jordan
elimination with ``Fraction`` and products of sparse dict polynomials,
but imports nothing from tworow, so a change to tworow leaves it alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.2

_MATRIX = [[(i + 2) ** j * (1 + (i * j) % 3) for j in range(9)] for i in range(9)]
_POLY = {tuple((i * k) % 3 for k in range(6)): Fraction(i + 1, i % 4 + 1) for i in range(18)}


def _solve(matrix, rhs):
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration work."""
    start = time.perf_counter()
    for r in range(72):
        _solve(_MATRIX, [Fraction(r + i, 3) for i in range(9)])
    for _ in range(36):
        _poly_mul(_POLY, _POLY)
    return time.perf_counter() - start
