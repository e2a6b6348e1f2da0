import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from tworow.linalg import (
    SparseExactRREF,
    integer_det_bareiss,
    rational_rank,
    solve_rational,
    solve_tpoly_system,
    tpoly_det_bareiss,
    tpoly_det_cofactor,
)
from tworow.tpoly import TPoly


def T(*coeffs):
    return TPoly(coeffs)


def test_det_examples():
    t = T(0, 1)
    assert tpoly_det_bareiss([[t, T()], [T(), t]]) == T(0, 0, 1)
    assert tpoly_det_bareiss([[T(0, 0, 0, 5)]]) == T(0, 0, 0, 5)
    assert tpoly_det_bareiss([]) == TPoly.one()


def test_det_singular_and_swaps():
    t = T(0, 1)
    assert tpoly_det_bareiss([[t, t], [t, t]]) == TPoly.zero()
    # zero pivot forces a row swap and a sign flip
    m = [[TPoly.zero(), T(1)], [T(1), TPoly.zero()]]
    assert tpoly_det_bareiss(m) == T(-1)


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(7)
    for size in (1, 2, 3, 4):
        for _ in range(12):
            m = [
                [
                    TPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert tpoly_det_bareiss(m) == tpoly_det_cofactor(m)


def test_integer_det():
    assert integer_det_bareiss([[2, 0], [0, 3]]) == 6
    assert integer_det_bareiss([[1, 2], [2, 4]]) == 0
    rng = random.Random(11)
    for _ in range(12):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        tm = [[TPoly([v]) for v in row] for row in m]
        assert TPoly([integer_det_bareiss(m)]) == tpoly_det_cofactor(tm)


def test_solve_tpoly_straightening_system():
    # image matrix for n=2, k=1 with values of x1 on the right-hand side
    t = T(0, 1)
    matrix = [[T(1), t], [T(1), 2 * t]]
    rhs = [2 * t, t]
    result = solve_tpoly_system(matrix, rhs)
    assert not result.singular
    assert result.denominator == t
    assert result.is_polynomial
    assert result.quotients == (T(0, 3), T(-1))


def test_solve_tpoly_singular_and_nonpolynomial():
    t = T(0, 1)
    assert solve_tpoly_system([[t, t], [t, t]], [t, t]).singular
    result = solve_tpoly_system([[t]], [T(1)])
    assert not result.singular
    assert not result.is_polynomial
    assert result.quotients is None
    assert result.numerators == (T(1),)
    assert result.denominator == t


def test_solve_tpoly_shape_validation():
    with pytest.raises(ValueError):
        solve_tpoly_system([[T(1), T(1)]], [T(1)])
    with pytest.raises(ValueError):
        solve_tpoly_system([[T(1)]], [T(1), T(1)])


def test_solve_rational():
    solution = solve_rational([[2, 1], [1, 1]], [3, 2])
    assert solution == [Fraction(1), Fraction(1)]
    assert solve_rational([[1, 1], [2, 2]], [1, 2]) is None


def _is_solution(matrix, x, b):
    return all(sum(a * v for a, v in zip(row, x)) == rhs for row, rhs in zip(matrix, b))


rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=5)
)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4),
    )
))
@settings(max_examples=60, deadline=None)
def test_solve_rational_residual_is_exact(system):
    # the reference is the exact residual M x - b, not a second solver;
    # several right-hand sides per matrix reuse the cached factorization
    matrix, rhss = system
    scale = prod(Fraction(v).denominator for row in matrix for v in row)
    det = integer_det_bareiss([[int(v * scale) for v in row] for row in matrix])
    for b in rhss:
        x = solve_rational(matrix, b)
        if det == 0:
            assert x is None
        else:
            assert all(isinstance(v, Fraction) for v in x)
            assert _is_solution(matrix, x, b)


@given(st.lists(rationals, min_size=3, max_size=3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_solve_rational_singular_stays_none(row, factor):
    matrix = [row, [factor * v for v in row], [Fraction(1, 2), 0, 7]]
    assert solve_rational(matrix, [1, 2, 3]) is None
    assert solve_rational(matrix, [0, 0, 0]) is None


def test_solve_rational_sees_mutated_matrix():
    matrix = [[2, 1], [1, 1]]
    assert solve_rational(matrix, [3, 2]) == [1, 1]
    matrix[0][0] = 3
    x = solve_rational(matrix, [3, 2])
    assert x == [Fraction(1, 2), Fraction(3, 2)]
    assert _is_solution(matrix, x, [3, 2])
    matrix[1] = [6, 2]
    assert solve_rational(matrix, [3, 2]) is None


def test_solve_rational_empty_and_shapes():
    assert solve_rational([], []) == []
    with pytest.raises(ValueError):
        solve_rational([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_rational([[1]], [1, 2])


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
        assert rational_rank(sparse) == rank


def test_sparse_rref_incremental_and_fractions():
    rref = SparseExactRREF()
    assert rref.add_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert not rref.add_row({0: 3, 1: 2})  # same line, scaled
    assert rref.add_row({1: 1})
    assert rref.rank == 2
    assert not rref.add_row({})
