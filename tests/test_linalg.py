import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tworow.linalg import (
    SparseExactRREF,
    integer_det_bareiss,
    rational_inverse,
    solve_rational,
)


def solve(matrix, rhs):
    inverse = rational_inverse(matrix)
    if inverse is None:
        return None
    numerators, d = solve_rational(inverse, rhs)
    return [Fraction(a, d) for a in numerators]


def test_det_examples():
    assert integer_det_bareiss([[5]]) == 5
    assert integer_det_bareiss([[1, 2], [3, 4]]) == -2
    assert integer_det_bareiss([]) == 1


def test_det_singular_and_swaps():
    assert integer_det_bareiss([[2, 2], [2, 2]]) == 0
    # zero pivot forces a row swap and a sign flip
    assert integer_det_bareiss([[0, 1], [1, 0]]) == -1
    assert integer_det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_bareiss_matches_cofactor_on_random_matrices(cofactor_det):
    # mostly-zero entries force zero pivots, row swaps and singular matrices
    rng = random.Random(7)
    entries = (0, 0, 0, -2, -1, 1, 3)
    for size in (1, 2, 3, 4, 5):
        for _ in range(12):
            m = [[rng.choice(entries) for _ in range(size)] for _ in range(size)]
            assert integer_det_bareiss(m) == cofactor_det(m)


def test_integer_det(cofactor_det):
    assert integer_det_bareiss([[2, 0], [0, 3]]) == 6
    assert integer_det_bareiss([[1, 2], [2, 4]]) == 0
    rng = random.Random(11)
    for _ in range(12):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        assert integer_det_bareiss(m) == cofactor_det(m)


def test_solve_rational_straightening_system():
    # the integer core for n=2, k=1 against the degree-one values of x1,
    # (2, 1): x1 = 3t * 1 - x2, the example worked in the straightening tests
    assert solve([[1, 1], [1, 2]], [2, 1]) == [3, -1]


def test_solve_rational():
    solution = solve([[2, 1], [1, 1]], [3, 2])
    assert solution == [Fraction(1), Fraction(1)]
    assert rational_inverse([[1, 1], [2, 2]]) is None


def test_rational_inverse_lowest_terms():
    # a zero pivot forces a row swap; the determinant -6 is negative, and
    # the inverse [[0, 1/3], [1/2, 0]] has least common denominator 6
    assert rational_inverse([[0, 2], [3, 0]]) == (((0, 2), (3, 0)), 6)
    assert rational_inverse([[0, -1], [1, 0]]) == (((0, 1), (-1, 0)), 1)
    # the common factor of the adjugate and the determinant is reduced away
    assert rational_inverse([[2, 0], [0, 2]]) == (((1, 0), (0, 1)), 2)
    assert rational_inverse([[4]]) == (((1,),), 4)


def _is_solution(matrix, x, b):
    return all(sum(a * v for a, v in zip(row, x)) == rhs for row, rhs in zip(matrix, b))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n), min_size=1, max_size=4),
    )
))
@settings(max_examples=60, deadline=None)
def test_solve_rational_residual_is_exact(system):
    # the reference is the exact residual M x - b, not a second solver;
    # several right-hand sides per matrix reuse one factorization
    matrix, rhss = system
    inverse = rational_inverse(matrix)
    if integer_det_bareiss(matrix) == 0:
        assert inverse is None
        return
    adj, d = inverse
    assert d > 0 and all(isinstance(v, int) for row in adj for v in row)
    # d is the least common denominator of the inverse
    assert gcd(d, *(v for row in adj for v in row)) == 1
    for b in rhss:
        numerators, denominator = solve_rational(inverse, b)
        assert denominator == d and all(isinstance(v, int) for v in numerators)
        # M (numerators / d) = b, checked in integers as M numerators = d b
        assert _is_solution(matrix, numerators, [d * v for v in b])


@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_solve_rational_singular_stays_none(row, factor):
    matrix = [row, [factor * v for v in row], [1, 0, 7]]
    assert rational_inverse(matrix) is None


def test_solve_rational_sees_mutated_matrix():
    # nothing is cached by matrix contents: a changed matrix gets its own inverse
    matrix = [[2, 1], [1, 1]]
    assert solve(matrix, [3, 2]) == [1, 1]
    matrix[0][0] = 3
    x = solve(matrix, [3, 2])
    assert x == [Fraction(1, 2), Fraction(3, 2)]
    assert _is_solution(matrix, x, [3, 2])
    matrix[1] = [6, 2]
    assert rational_inverse(matrix) is None


def test_solve_rational_empty_and_shapes():
    assert solve([], []) == []
    with pytest.raises(ValueError):
        rational_inverse([[1, 2]])
    with pytest.raises(ValueError):
        solve_rational(rational_inverse([[1]]), [1, 2])


def test_sparse_rref_rank_matches_dense_elimination():
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 5)
        dense = [
            [Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)
        ]
        sparse = [
            {j: val for j, val in enumerate(row) if val} for row in dense
        ]
        # independent oracle: textbook Gaussian elimination
        work = [row[:] for row in dense]
        rank = 0
        for col in range(cols):
            pivot = next((r for r in range(rank, rows) if work[r][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for r in range(rows):
                if r != rank and work[r][col]:
                    factor = work[r][col] / work[rank][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
            rank += 1
        rref = SparseExactRREF()
        for row in sparse:
            rref.add_row(row)
        assert rref.rank == rank


def test_sparse_rref_incremental_and_fractions():
    rref = SparseExactRREF()
    assert rref.add_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert not rref.add_row({0: 3, 1: 2})  # same line, scaled
    assert rref.add_row({1: 1})
    assert rref.rank == 2
    assert not rref.add_row({})
