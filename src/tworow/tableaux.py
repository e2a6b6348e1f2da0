"""Partitions, two-row fillings, standard tableaux, and hook lengths.

Rows and columns are 1-indexed and diagrams are drawn in English
notation (row 1 on top).  Only two-row shapes are enumerated; hook data
works for arbitrary partitions.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial, prod
from typing import Iterable


class Partition(namedtuple("Partition", "parts")):
    """A partition as a weakly decreasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        parts = tuple(parts)
        if any(not isinstance(p, int) or p <= 0 for p in parts):
            raise ValueError("partition parts must be positive integers")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def contains_box(self, row: int, col: int) -> bool:
        return 1 <= row <= len(self.parts) and 1 <= col <= self.parts[row - 1]


def two_row_shape(n: int, ell: int) -> Partition:
    """The shape (n - ell, ell); a zero bottom row gives the single row (n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= ell <= n - ell:
        raise ValueError(f"need 0 <= ell <= n - ell, got n={n}, ell={ell}")
    return Partition((n,)) if ell == 0 else Partition((n - ell, ell))


def hook_length(shape: Partition, row: int, col: int) -> int:
    """Arm + leg + 1 of the box at (row, col)."""
    if not shape.contains_box(row, col):
        raise ValueError(f"box ({row}, {col}) is not in the diagram {shape.parts}")
    arm = shape.parts[row - 1] - col
    leg = sum(1 for r in range(row, len(shape.parts)) if shape.parts[r] >= col)
    return arm + leg + 1


def hook_count(shape: Partition) -> int:
    """Number of standard tableaux of the shape, n! over the product of
    all hook lengths.  The quotient is always an integer; a remainder
    would indicate a bug, so it is asserted.  The hooks are multiplied
    as a balanced tree, pairing neighbours level by level: multiplying
    one growing integer by each hook in turn is quadratic in the boxes."""
    hooks = [
        hook_length(shape, row, col)
        for row in range(1, len(shape.parts) + 1)
        for col in range(1, shape.parts[row - 1] + 1)
    ]
    while len(hooks) > 1:
        hooks = [prod(hooks[i : i + 2]) for i in range(0, len(hooks), 2)]
    count, remainder = divmod(factorial(shape.size), prod(hooks))
    if remainder:
        raise ArithmeticError(f"hook product does not divide n! for {shape.parts}")
    return count


class TwoRowFilling(namedtuple("TwoRowFilling", "top bottom")):
    """An injective placement of 1..n into a two-row shape.

    The alphabet constraint is enforced here; monotonicity along rows
    and columns is what the predicates below test.
    """

    __slots__ = ()

    def __new__(cls, top: Iterable[int], bottom: Iterable[int]):
        top = tuple(top)
        bottom = tuple(bottom)
        n = len(top) + len(bottom)
        if len(bottom) > len(top):
            raise ValueError("bottom row longer than top row")
        seen = set(top) | set(bottom)
        if seen != set(range(1, n + 1)) or len(top) + len(bottom) != len(seen):
            raise ValueError(f"filling must use 1..{n} exactly once")
        return super().__new__(cls, top, bottom)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)

    @property
    def n(self) -> int:
        return len(self.top) + len(self.bottom)

    @property
    def ell(self) -> int:
        return len(self.bottom)

    def text(self) -> str:
        """Bracket form, top row first: [[1,3,4],[2]]."""
        return f"[[{','.join(map(str, self.top))}],[{','.join(map(str, self.bottom))}]]"


def is_permissible(filling: TwoRowFilling) -> bool:
    """Both rows strictly increase left to right."""
    rows = (filling.top, filling.bottom)
    return all(
        row[i] < row[i + 1] for row in rows for i in range(len(row) - 1)
    )


def is_standard(filling: TwoRowFilling) -> bool:
    """Permissible, and each of the first ell columns increases downwards."""
    if not is_permissible(filling):
        return False
    return all(filling.top[i] < filling.bottom[i] for i in range(filling.ell))


def enumerate_standard_tableaux(n: int, ell: int) -> list[TwoRowFilling]:
    """All standard tableaux of shape (n - ell, ell), ordered
    lexicographically by bottom row.  A bottom row b_1 < ... < b_ell is
    standard exactly when b_i >= 2i (the ballot condition: 1..b_i holds
    at least i top entries), so only those rows are generated, each
    prefix extended in increasing order; b_i <= n - ell + i leaves room
    for the rest, so no prefix is a dead end."""
    if not 0 <= ell <= n - ell:
        raise ValueError(f"need 0 <= ell <= n - ell, got n={n}, ell={ell}")
    bottoms = [()]
    for i in range(1, ell + 1):
        bottoms = [
            b + (v,) for b in bottoms for v in range(max(b[-1] + 1 if b else 0, 2 * i), n - ell + i + 1)
        ]
    found = []
    for bottom in bottoms:
        used = set(bottom)
        found.append(TwoRowFilling(top=tuple(v for v in range(1, n + 1) if v not in used), bottom=bottom))
    return found


def binomial_hook_identity(n: int, k: int) -> tuple[int, int, bool]:
    """Compare C(n, k) with the total count of standard tableaux over the
    two-row shapes (n, 0) down to (n - k, k).  Returns (binomial, total,
    equal)."""
    if not 0 <= k <= n - k:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    total = sum(hook_count(two_row_shape(n, ell)) for ell in range(k + 1))
    binomial = comb(n, k)
    return binomial, total, binomial == total


def monomial_from_filling(filling: TwoRowFilling) -> tuple[int, ...]:
    """The squarefree exponent tuple picking out the bottom-row entries.

    The tuple has n + 1 slots; the trailing slot is the equivariant
    parameter and is always zero here.
    """
    mono = [0] * (filling.n + 1)
    for j in filling.bottom:
        mono[j - 1] = 1
    return tuple(mono)


def filling_from_monomial(mono: Iterable[int], n: int) -> TwoRowFilling:
    """The filling whose bottom row is the support of a squarefree
    monomial in x1..xn (ascending) and whose top row is the complement.

    Accepts exponent tuples of length n (x variables only) or n + 1 with
    a zero trailing t slot.
    """
    mono = tuple(mono)
    if len(mono) == n + 1:
        if mono[n] != 0:
            raise ValueError("monomial must not involve t")
        mono = mono[:n]
    if len(mono) != n:
        raise ValueError(f"expected {n} or {n + 1} exponents, got {len(mono)}")
    if any(e not in (0, 1) for e in mono):
        raise ValueError("monomial must be squarefree")
    bottom = tuple(i + 1 for i, e in enumerate(mono) if e)
    if 2 * len(bottom) > n:
        raise ValueError("support exceeds half the alphabet; no two-row filling")
    top = tuple(i + 1 for i, e in enumerate(mono) if not e)
    return TwoRowFilling(top=top, bottom=bottom)
