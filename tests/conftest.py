import random
from functools import lru_cache

import pytest

from tworow import linalg, springer

SAMPLE_SEED = 1729  # seeds the deterministic straightening spot-checks


def sample_monomials(ctx, count=50, max_degree=5):
    """Deterministic pseudo-random monomials in x1..xn, t of total degree
    at most max_degree, for straightening spot-checks."""
    rng = random.Random(f"{SAMPLE_SEED}:{ctx.n}:{ctx.k}")
    out = []
    for _ in range(count):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(ctx.nvars)] += 1
        out.append(tuple(mono))
    return out


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


def _core_determinant(ctx):
    """The basis matrix's integer core determinant by Bareiss elimination,
    0 when singular: the reference for the residues that
    ``springer.core_determinant_residue`` finds.  No check computes it."""
    return linalg.integer_det_bareiss(springer.basis_image_matrix(ctx).integer_core)


@pytest.fixture
def core_determinant():
    return _core_determinant
