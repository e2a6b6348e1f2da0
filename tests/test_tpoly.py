from fractions import Fraction

import pytest

from tworow.tpoly import TPoly


def test_normalization_drops_trailing_zeros():
    assert TPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert TPoly([0, 0]).coeffs == ()
    assert not TPoly()
    assert TPoly.zero() == TPoly([])


def test_term_and_degree():
    p = TPoly.term(3, 2)
    assert p.coeffs == (0, 0, 3)
    assert p.degree == 2
    assert TPoly.zero().degree == -1
    assert TPoly.term(0, 5) == TPoly.zero()
    with pytest.raises(ValueError):
        TPoly.term(1, -1)


def test_arithmetic():
    p = TPoly([1, 2])       # 1 + 2t
    q = TPoly([0, -2, 1])   # -2t + t^2
    assert p + q == TPoly([1, 0, 1])
    assert p - p == TPoly.zero()
    assert p * q == TPoly([0, -2, -3, 2])
    assert 3 * p == TPoly([3, 6])
    assert p * Fraction(1, 2) == TPoly([Fraction(1, 2), 1])
    assert (-p) + p == TPoly.zero()


def test_str():
    assert str(TPoly.zero()) == "0"
    assert str(TPoly([Fraction(1, 2)])) == "1/2"
    assert str(TPoly([-2, 0, 1])) == "t^2 - 2"
    assert str(TPoly([0, -1])) == "-t"
    assert str(TPoly([1, 3, Fraction(5, 2)])) == "5/2*t^2 + 3*t + 1"
