from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tworow.polynomials import (
    MPoly,
    PolyParseError,
    elementary_symmetric,
    format_poly,
    grevlex_key,
    parse_poly,
    variable_names,
)

NAMES3 = variable_names(2)  # x1, x2, t


def v(nvars, pos):
    return MPoly.variable(nvars, pos)


def test_cancellation():
    x1, t = v(3, 0), v(3, 2)
    assert (x1 + t) + (x1 - t) == 2 * x1


def test_binomial_square():
    x1, x2 = v(3, 0), v(3, 1)
    expanded = (x1 + x2) ** 2
    assert expanded == x1 * x1 + 2 * (x1 * x2) + x2 * x2


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError, match="variable count"):
        v(3, 0) + v(4, 0)
    with pytest.raises(ValueError, match="variable count"):
        v(3, 0) * v(2, 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        MPoly(2, {(-1, 0): 1})
    assert not MPoly(2, {(1, 0): 0})


def test_elementary_symmetric_examples():
    e1 = elementary_symmetric(4, 1, [0, 1, 2])
    assert e1 == v(4, 0) + v(4, 1) + v(4, 2)
    e2_two = elementary_symmetric(4, 2, [0, 1])
    assert e2_two == v(4, 0) * v(4, 1)
    e2_three = elementary_symmetric(4, 2, [0, 1, 2])
    expected = v(4, 0) * v(4, 1) + v(4, 0) * v(4, 2) + v(4, 1) * v(4, 2)
    assert e2_three == expected


def test_elementary_symmetric_degenerate():
    assert elementary_symmetric(3, 2, [0]) == MPoly.zero(3)
    assert elementary_symmetric(3, 0, [0, 1]) == MPoly.one(3)
    with pytest.raises(ValueError):
        elementary_symmetric(3, -1, [0])
    with pytest.raises(ValueError):
        elementary_symmetric(3, 1, [5])


def test_homogeneous_components():
    x1, t = v(3, 0), v(3, 2)
    p = x1 * x1 + 3 * t + MPoly.one(3)
    parts = p.homogeneous_components()
    assert set(parts) == {0, 1, 2}
    assert parts[1] == 3 * t
    assert sum(parts.values(), MPoly.zero(3)) == p
    assert list((x1 * t).homogeneous_components()) == [2]


def test_monomial_order_precedence():
    # x1 beats x2 beats t
    x1m, x2m, tm = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert grevlex_key(x1m) > grevlex_key(x2m) > grevlex_key(tm)


def test_grevlex_grlex_differ():
    # x1*x3^2 vs x2^3: grlex (degree, then lex) prefers the x1 term,
    # grevlex the x2 term
    a, b = (1, 0, 2), (0, 3, 0)
    assert (sum(a), a) > (sum(b), b)
    assert grevlex_key(a) < grevlex_key(b)
    assert MPoly(3, {a: 1, b: 1}).leading_monomial() == b


def test_format_canonical():
    x1, x2, t = v(3, 0), v(3, 1), v(3, 2)
    p = Fraction(3, 2) * (x1 * x1 * t) - x2 * t + 5 * (t * t * t)
    assert format_poly(p, NAMES3) == "3/2*x1^2*t + 5*t^3 - x2*t"
    assert format_poly(MPoly.zero(3), NAMES3) == "0"
    assert format_poly(-x1, NAMES3) == "-x1"
    assert format_poly(MPoly.constant(3, Fraction(-5, 3)), NAMES3) == "-5/3"


def test_parse_examples():
    p = parse_poly("3/2*x1^2*t - x2*x1 + 5*t^2", NAMES3)
    x1, x2, t = v(3, 0), v(3, 1), v(3, 2)
    assert p == Fraction(3, 2) * (x1 * x1 * t) - x2 * x1 + 5 * (t * t)
    assert parse_poly("0", NAMES3) == MPoly.zero(3)
    assert parse_poly("-x1", NAMES3) == -x1
    assert parse_poly("x1*x1", NAMES3) == x1 * x1
    assert parse_poly("2*3", NAMES3) == MPoly.constant(3, 6)


def test_parse_collects_repeated_and_cancelling_monomials():
    x1, x2, t = v(3, 0), v(3, 1), v(3, 2)
    assert parse_poly("x1 + 2*x1 - 3*x1 + t", NAMES3) == t
    assert parse_poly("x1*x2 - x2*x1", NAMES3) == MPoly.zero(3)
    assert parse_poly("1/2*t - x1 + 1/3*t + x1", NAMES3) == Fraction(5, 6) * t
    # a monomial that cancels and then comes back
    assert parse_poly("x2 - x2 + x1^2 + x2", NAMES3) == x1 * x1 + x2


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as info:
        parse_poly("x1 + x9", NAMES3)
    assert info.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("", NAMES3)
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", NAMES3)
    with pytest.raises(PolyParseError):
        parse_poly("x1^", NAMES3)
    with pytest.raises(PolyParseError):
        parse_poly("1/0", NAMES3)
    with pytest.raises(PolyParseError, match="unexpected character '&'") as info:
        parse_poly("x1 & x2", NAMES3)
    assert info.value.position == 3
    with pytest.raises(PolyParseError, match="unexpected character '&'") as info:
        parse_poly("x1\t\u00a0& x2", NAMES3)
    assert info.value.position == 4
    # a tab and a non-ASCII space separate tokens; trailing whitespace ends the text
    assert parse_poly("x1\t+\u00a0x2 \t\n", NAMES3) == parse_poly("x1 + x2", NAMES3)
    assert parse_poly("x1\u2003*\tx2^2\u00a0", NAMES3) == parse_poly("x1*x2^2", NAMES3)
    # int() refuses strings past Python's digit limit (4300 by default)
    digits = "7" * 5000
    for text, position in ((f"{digits}*x1", 0), (f"x1^{digits}", 3), (f"1/{digits}", 2)):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text, NAMES3)
        assert info.value.position == position
        assert "5000 digits" in str(info.value)


coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
monomials3 = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys3 = st.dictionaries(monomials3, coefficients, max_size=5).map(
    lambda terms: MPoly(3, terms)
)
nonzero = coefficients.filter(bool)


@given(polys3, polys3, polys3)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=40)
def test_homogeneous_degree_multiplies(da, db, data):
    def homogeneous(degree):
        monos = [
            (i, j, degree - i - j)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        ]
        coeffs = data.draw(
            st.lists(coefficients, min_size=len(monos), max_size=len(monos))
        )
        return MPoly(3, dict(zip(monos, coeffs)))

    a, b = homogeneous(da), homogeneous(db)
    if a and b:
        product = a * b
        assert len(product.homogeneous_components()) <= 1
        if product:
            assert product.total_degree() == da + db


@given(polys3)
@settings(max_examples=80)
def test_parse_format_round_trip(p):
    text = format_poly(p, NAMES3)
    assert parse_poly(text, NAMES3) == p
    # the printer is the identity on its own canonical output
    assert format_poly(parse_poly(text, NAMES3), NAMES3) == text


@given(st.integers(0, 4), st.data())
@settings(max_examples=80)
def test_t_divides_leading_monomial_only_if_it_divides_every_term(degree, data):
    # Bayer-Stillman, the fact the Groebner cross-check of the kernel
    # certificate rests on (test_basis_of_i_specializes_to_the_basis_of_j):
    # for a homogeneous f in Q[x1,x2,x3,t], t | lm(f) implies t | f.  It fails
    # in grlex: lm(x1*t + x2^2) would be x1*t.
    monos = [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, unique=True))
    coeffs = data.draw(st.lists(nonzero, min_size=len(chosen), max_size=len(chosen)))
    f = MPoly(4, dict(zip(chosen, coeffs)))
    if f.leading_monomial()[-1]:
        assert all(m[-1] for m in f.terms)
