from functools import lru_cache

import pytest


def _cofactor_det(matrix):
    """Integer determinant by Laplace expansion along the first row,
    memoized on the columns left over; an oracle that shares nothing with
    elimination.  The memo keeps it fast up to about 12 x 12."""
    n = len(matrix)

    @lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return 1
        row = matrix[n - len(cols)]
        return sum(
            (-1) ** i * row[c] * minor(cols[:i] + cols[i + 1 :])
            for i, c in enumerate(cols)
            if row[c]
        )

    return minor(tuple(range(n)))


@pytest.fixture
def cofactor_det():
    return _cofactor_det
