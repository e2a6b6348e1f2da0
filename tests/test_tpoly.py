import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tworow.polynomials import MPoly
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


# -- the dense arithmetic and printer TPoly had before it delegated to
# MPoly, kept as an independent reference for the delegating operators


class DenseReference:
    """Dense Q[t] arithmetic on coefficient tuples, trailing zeros dropped."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __neg__(self):
        return DenseReference(-c for c in self.coeffs)

    def __add__(self, other):
        other = _reference(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DenseReference(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_reference(other))

    def __rsub__(self, other):
        return _reference(other) + (-self)

    def __mul__(self, other):
        other = _reference(other)
        if not self.coeffs or not other.coeffs:
            return DenseReference(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DenseReference(out)

    __rmul__ = __mul__

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{power}" if mag == 1 else f"{mag}*t^{power}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)


def _reference(value):
    if isinstance(value, DenseReference):
        return value
    return DenseReference((value,))


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_coeff_lists = st.lists(st.one_of(st.integers(-5, 5), _fractions), max_size=6)
_scalars = st.one_of(st.integers(-9, 9), _fractions)


def _agrees(value, reference):
    assert isinstance(value, TPoly)
    assert value.coeffs == reference.coeffs
    assert all(type(c) is Fraction for c in value.coeffs)
    assert str(value) == str(reference)
    assert value == TPoly(reference.coeffs)
    assert hash(value) == hash(TPoly(reference.coeffs))


@settings(max_examples=300, deadline=None)
@given(_coeff_lists, _coeff_lists, _scalars)
def test_operators_match_the_dense_reference(a, b, s):
    p, q = TPoly(a), TPoly(b)
    rp, rq = DenseReference(a), DenseReference(b)
    _agrees(p, rp)
    _agrees(-p, -rp)
    _agrees(p + q, rp + rq)
    _agrees(p - q, rp - rq)
    _agrees(p * q, rp * rq)
    for scalar in (s, int(s)):
        _agrees(p + scalar, rp + scalar)
        _agrees(scalar + p, scalar + rp)
        _agrees(p - scalar, rp - scalar)
        _agrees(scalar - p, scalar - rp)
        _agrees(p * scalar, rp * scalar)
        _agrees(scalar * p, scalar * rp)
        assert (p == scalar) == (rp.coeffs == DenseReference((scalar,)).coeffs)
        assert (p in {scalar}) == (p == scalar) == (scalar in {p})
        assert TPoly([scalar]) in {scalar} and hash(TPoly([scalar])) == hash(scalar)
    assert (p == q) == (rp.coeffs == rq.coeffs)
    assert (hash(p) == hash(q)) or p != q


def test_operands_other_than_scalars_and_tpolys_are_refused():
    p = TPoly([1, 2])
    for other in (1.5, MPoly.one(1), "t"):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)
    assert p != 1.5 and p != MPoly.one(1)


def test_add_and_mul_are_tpolys_own_entries():
    # the benchmark's tracer counts these two through the class dict
    assert {"__add__", "__radd__", "__mul__", "__rmul__"} <= set(vars(TPoly))
    assert vars(TPoly)["__radd__"] is vars(TPoly)["__add__"]
    assert vars(TPoly)["__rmul__"] is vars(TPoly)["__mul__"]
