import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tworow import groebner
from tworow.groebner import (
    BITS,
    GroebnerBasis,
    _divides,
    _flip,
    _guards,
    _pack,
    _reduce,
    _unpack,
    buchberger,
    ideal_equal,
    normal_form,
    quotient_dimension,
)
from tworow.polynomials import MPoly, grevlex_key, monomial_divides, monomial_mul
from tworow.springer import SpringerContext, ideal_by_name, ordinary_ideal, tanisaki_ideal

def v(nvars, pos):
    return MPoly.variable(nvars, pos)


def j_generators(n, k):
    return list(ordinary_ideal(SpringerContext(n, k)).generators)


def test_already_reduced_input():
    x1, x2 = v(2, 0), v(2, 1)
    gb = buchberger([x1, x2])
    assert set(gb.generators) == {x1, x2}
    assert gb.nvars == 2


def test_linear_elimination():
    x1, x2 = v(2, 0), v(2, 1)
    gb = buchberger([x1 + x2, x1 - x2])
    assert set(gb.generators) == {x1, x2}


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        buchberger([])


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        buchberger([v(2, 0), v(3, 0)])


def test_gb_of_small_presentation_ideal():
    # hand elimination: x1 + x2 reduces x1^2 and x1*x2 to x2^2, leaving
    # the reduced basis {x1 + x2, x2^2} with standard monomials {1, x2}
    x1, x2 = v(2, 0), v(2, 1)
    gb = buchberger(j_generators(2, 1))
    assert set(gb.generators) == {x1 + x2, x2 * x2}
    dim, standard = quotient_dimension(gb)
    assert dim == 2
    assert standard == [(0, 0), (0, 1)]


def test_generators_have_zero_normal_form():
    gens = j_generators(3, 1)
    gb = buchberger(gens)
    for g in gens:
        assert not normal_form(g, gb)


def test_normal_form_of_one_is_one():
    gb = buchberger(j_generators(3, 1))
    one = MPoly.one(3)
    assert normal_form(one, gb) == one


def test_membership_example():
    gb = buchberger(j_generators(2, 1))
    x1 = v(2, 0)
    assert not normal_form(x1 * x1, gb)


def test_ideal_equal_reflexive():
    gens = j_generators(3, 1)
    assert ideal_equal(gens, gens).equal


def test_ideal_equal_j_vs_tanisaki():
    ctx = SpringerContext(3, 1)
    comparison = ideal_equal(
        list(ordinary_ideal(ctx).generators), list(tanisaki_ideal(ctx).generators)
    )
    assert comparison.equal
    assert comparison.witness is None


def test_ideal_unequal_with_witness():
    left = j_generators(4, 2)
    right = list(tanisaki_ideal(SpringerContext(4, 1)).generators)
    comparison = ideal_equal(left, right)
    assert not comparison.equal
    assert comparison.witness is not None
    gb = buchberger(left if comparison.witness_side == "right" else right)
    assert normal_form(comparison.witness, gb)


def test_quotient_dimension_point():
    for n in (1, 2, 4):
        dim, standard = quotient_dimension(buchberger([v(n, i) for i in range(n)]))
        assert dim == 1
        assert standard == [(0,) * n]


def test_quotient_dimension_matches_rank_counts():
    dim4, _ = quotient_dimension(buchberger(j_generators(4, 2)))
    assert dim4 == 6
    dim5, _ = quotient_dimension(buchberger(j_generators(5, 2)))
    assert dim5 == 10


def test_quotient_dimension_counts_standard_tableaux():
    # the quotient dimension equals the standard tableau count over the
    # two-row shapes with bottom size at most k
    from tworow.tableaux import hook_count, two_row_shape

    for n in range(1, 6):
        for k in range(n // 2 + 1):
            dim, _ = quotient_dimension(buchberger(j_generators(n, k)))
            assert dim == sum(
                hook_count(two_row_shape(n, ell)) for ell in range(k + 1)
            )


def test_quotient_dimension_infinite():
    x1 = v(2, 0)
    dim, standard = quotient_dimension(buchberger([x1]))
    assert dim is None
    assert standard == []


def test_zero_ideal_keeps_its_ring():
    for nvars in (1, 2):
        gb = buchberger([MPoly.zero(nvars)])
        assert gb.generators == () and gb.nvars == nvars
        assert quotient_dimension(gb) == (None, [])
        assert normal_form(MPoly.one(nvars), gb) == MPoly.one(nvars)
        with pytest.raises(ValueError):
            normal_form(MPoly.one(nvars + 1), gb)


def test_unit_ideal():
    dim, standard = quotient_dimension(buchberger([MPoly.one(2)]))
    assert dim == 0
    assert standard == []


def _random_member(rng, gens):
    """A random element of the ideal: sum of monomial multiples of generators."""
    nvars = gens[0].nvars
    total = MPoly.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens)
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        total = total + g.times_monomial(mono, rng.randint(-3, 3))
    return total


def test_members_reduce_to_zero():
    rng = random.Random(5)
    gens = j_generators(3, 1)
    gb = buchberger(gens)
    for _ in range(25):
        f = _random_member(rng, gens)
        g = _random_member(rng, gens)
        assert not normal_form(f + g, gb)
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        assert not normal_form(f.times_monomial(mono), gb)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=4,
).map(lambda terms: MPoly(3, terms))


@given(small_polys, small_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_normal_form_is_linear(f, g, a):
    gb = buchberger(j_generators(3, 1))
    lhs = normal_form(a * f + g, gb)
    rhs = a * normal_form(f, gb) + normal_form(g, gb)
    assert lhs == rhs


def test_spolynomials_of_basis_reduce_to_zero():
    # the defining property of a Groebner basis, checked directly
    gb = buchberger(j_generators(4, 2))
    gens = gb.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = _reference_s_polynomial(gens[i], gens[j])
            assert not normal_form(s, gb)


def _assert_reduced(gb):
    # each generator is monic, its leading monomial is divisible by no
    # other generator's, and neither is any of its other monomials
    lms = gb.leading_monomials()
    for i, g in enumerate(gb.generators):
        assert g.terms[lms[i]] == 1
        others = lms[:i] + lms[i + 1 :]
        assert not any(monomial_divides(lm, lms[i]) for lm in others)
        tail = [mono for mono in g.terms if mono != lms[i]]
        assert not any(monomial_divides(lm, mono) for lm in others for mono in tail)


def test_reduced_basis_is_reduced():
    for name, n, k in (("J", 4, 1), ("I", 5, 2)):
        _assert_reduced(buchberger(ideal_by_name(SpringerContext(n, k), name).generators))


# A reference Buchberger, kept as a cross-check of the library's: the
# same algorithm written the plain way, on exponent tuples, with each
# pair chosen by a scan of the whole pending set and division through
# fresh MPoly subtractions.  Reduced Groebner bases are unique, so both
# must return the same generators in the same order.


def monomial_div(a, b):
    """The quotient a / b; the caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_degree(a):
    return sum(a)


def _monic(p):
    lc = p.terms[p.leading_monomial()]
    return p * (1 / lc)


def _reference_s_polynomial(f, g):
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    l = monomial_lcm(lf, lg)
    return f.times_monomial(monomial_div(l, lf), 1 / f.terms[lf]) - g.times_monomial(
        monomial_div(l, lg), 1 / g.terms[lg]
    )


def _reference_reduce(f, reducers):
    lead = [(g.leading_monomial(), g) for g in reducers]
    p = f
    remainder = MPoly.zero(f.nvars)
    while p:
        lm = p.leading_monomial()
        lc = p.terms[lm]
        for glm, g in lead:
            if monomial_divides(glm, lm):
                p = p - g.times_monomial(monomial_div(lm, glm), lc / g.terms[glm])
                break
        else:
            head = MPoly.from_monomial(lm, lc)
            remainder = remainder + head
            p = p - head
    return remainder


def _reference_interreduce(basis):
    lms = [g.leading_monomial() for g in basis]
    minimal = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i and monomial_divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        )
    ]
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            if not others:
                continue
            reduced = _reference_reduce(minimal[i], others)
            if reduced != minimal[i]:
                changed = True
                if reduced:
                    minimal[i] = _monic(reduced)
                else:
                    del minimal[i]
                    break
    minimal.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return tuple(minimal)


def _reference_buchberger(generators):
    basis = [_monic(g) for g in generators if g]
    if not basis:
        return ()
    lms = [g.leading_monomial() for g in basis]
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_key(pair):
        l = monomial_lcm(lms[pair[0]], lms[pair[1]])
        return (monomial_degree(l), grevlex_key(l))

    while pending:
        i, j = min(pending, key=pair_key)
        pending.remove((i, j))
        l = monomial_lcm(lms[i], lms[j])
        if l == monomial_mul(lms[i], lms[j]):
            continue
        if any(
            m not in (i, j)
            and monomial_divides(lms[m], l)
            and (min(i, m), max(i, m)) not in pending
            and (min(j, m), max(j, m)) not in pending
            for m in range(len(basis))
        ):
            continue
        remainder = _reference_reduce(_reference_s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            basis.append(_monic(remainder))
            lms.append(basis[-1].leading_monomial())
            new = len(basis) - 1
            pending.update((m, new) for m in range(new))
    return _reference_interreduce(basis)


# generators of total degree at most 2, which keeps the plain reference
# fast
small_generators = st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
            lambda m: sum(m) <= 2
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4,
    ).map(lambda terms: MPoly(3, terms)),
    min_size=1,
    max_size=3,
)


@given(gens=small_generators)
@settings(max_examples=60, deadline=None)
def test_reduced_basis_of_small_generators_is_reduced(gens):
    # minimalization drops elements on some of these inputs
    _assert_reduced(buchberger(gens))


@given(gens=small_generators)
@settings(max_examples=60, deadline=None)
def test_buchberger_matches_reference(gens):
    assert buchberger(gens).generators == _reference_buchberger(gens)


def test_presentation_bases_match_reference():
    for n in range(1, 6):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            for name in ("I", "J", "tanisaki"):
                gens = ideal_by_name(ctx, name).generators
                expected = _reference_buchberger(gens)
                assert buchberger(gens).generators == expected, (n, k, name)


@given(f=small_polys, gens=small_generators)
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_reference_division(f, gens):
    gb = buchberger(gens)
    assert normal_form(f, gb) == _reference_reduce(f, gb.generators)


def test_reduce_heap_pops_in_descending_grevlex():
    # with no reducers every popped monomial goes to the remainder, in
    # the order the heap gives it up
    monomials = [tuple(m) for m in product(range(3), repeat=3)]
    random.Random(3).shuffle(monomials)
    scale, remainder = _reduce({_pack(m): 1 for m in monomials}, [], 3)
    assert scale == 1
    popped = [_unpack(e, 3) for e in remainder]
    assert popped == sorted(monomials, key=grevlex_key, reverse=True)


# Packed monomials against the exponent-tuple helpers, with exponents up
# to 2^20 in up to eleven slots: wide enough that a carry out of one slot
# into the next, or into the degree slot, would show.
wide_exponents = st.integers(0, 3) | st.integers(0, 2**20)


@st.composite
def monomial_pairs(draw):
    """(nvars, a, b) with b a multiple of a about half the time."""
    nvars = draw(st.integers(1, 11))
    monomials = st.lists(wide_exponents, min_size=nvars, max_size=nvars).map(tuple)
    a, b = draw(monomials), draw(monomials)
    if draw(st.booleans()):
        b = monomial_mul(a, b)
    return nvars, a, b


@given(monomial_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_monomials_match_tuples(pair):
    nvars, a, b = pair
    pa, pb = _pack(a), _pack(b)
    shift = BITS * nvars
    assert _unpack(pa, nvars) == a and _unpack(pb, nvars) == b
    assert pa + pb == _pack(monomial_mul(a, b))
    assert _divides(pa, pb, _guards(nvars)) == monomial_divides(a, b)
    assert _divides(pb, pa, _guards(nvars)) == monomial_divides(b, a)
    # the grevlex order is minus the heap key, and the key decodes back
    ka, kb = _flip(pa, shift), _flip(pb, shift)
    assert (-ka < -kb) == (grevlex_key(a) < grevlex_key(b))
    assert (ka == kb) == (a == b)
    assert _flip(ka, shift) == pa and _flip(kb, shift) == pb


def test_packing_refuses_a_degree_that_reaches_the_guard_bit():
    top = 2 ** (BITS - 1)
    assert _unpack(_pack((top - 1, 0)), 2) == (top - 1, 0)
    for mono in ((top, 0), (top - 1, 1)):
        with pytest.raises(ValueError):
            _pack(mono)
    f = MPoly(2, {(top, 0): 1})
    with pytest.raises(ValueError):
        buchberger([f])
    with pytest.raises(ValueError):
        normal_form(f, buchberger([v(2, 1)]))


def test_coprime_pair_whose_lcm_does_not_pack_is_dropped():
    # the pair's lcm has degree 2^31, past the packing, but coprime leading
    # monomials need no S-pair: the input is its own reduced basis
    half = 2 ** (BITS - 2)
    x, y = MPoly.from_monomial((half, 0)), MPoly.from_monomial((0, half))
    assert buchberger([x, y]).generators == (y, x)  # ascending grevlex
    # with a common variable the S-pair is needed, so it is still refused
    with pytest.raises(ValueError):
        buchberger([MPoly.from_monomial((half, 1)), MPoly.from_monomial((1, half))])


def test_normal_form_keeps_the_basis_reducers(monkeypatch):
    gb = buchberger(j_generators(4, 2))
    f = v(4, 0) ** 3 - Fraction(1, 2) * v(4, 1) * v(4, 2)
    first = normal_form(f, gb)
    reducers = gb.reducers
    assert len(reducers) == len(gb.generators)
    # later normal forms read the kept reducers and build none
    monkeypatch.setattr(groebner, "_reducer", None)
    assert normal_form(f, gb) == first == _reference_reduce(f, gb.generators)
    assert gb.reducers is reducers


def test_wide_exponents_match_reference():
    # exponents past 256 (and a non-homogeneous input) in every slot
    # that a narrow packing would carry out of
    x, y, z = v(3, 0), v(3, 1), v(3, 2)
    gens = [x**257 - z, y - x, x * z]
    gb = buchberger(gens)
    assert len(gb.generators) == 4
    assert gb.generators == _reference_buchberger(gens)
    f = x**300 * y - Fraction(3, 2) * x * z**2 + y**257 + 5 * z**3 - 7
    assert f.total_degree() > 256
    remainder = normal_form(f, gb)
    assert remainder == _reference_reduce(f, gb.generators)
    assert remainder


def _with_leading_coefficient(g, c):
    return g * (c / g.terms[g.leading_monomial()])


@st.composite
def redundant_generators(draw):
    """Generators of total degree at most 2 with fractional, non-unit
    leading coefficients, mixed with scalar multiples and sums of one
    another: input whose redundant members reduce to zero."""
    leads = st.sampled_from([Fraction(2, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(-6, 5), 3])
    base = [
        _with_leading_coefficient(g, draw(leads))
        for g in draw(small_generators)
        if g
    ]
    if not base:
        return [MPoly.zero(3)]
    gens = list(base)
    scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.sampled_from(gens))
        if draw(st.booleans()):
            gens.append(draw(scalars) * f)
        else:
            gens.append(f + draw(scalars) * draw(st.sampled_from(gens)))
    return draw(st.permutations(gens))


@given(gens=redundant_generators())
@settings(max_examples=60, deadline=None)
def test_buchberger_on_redundant_input_matches_reference(gens):
    assert buchberger(gens).generators == _reference_buchberger(gens)


big_denominator_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
        lambda m: sum(m) <= 2
    ),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
    max_size=4,
).map(lambda terms: MPoly(3, terms))


@given(
    f=big_denominator_polys,
    gens=st.lists(big_denominator_polys, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_normal_form_with_large_denominators_matches_reference(f, gens):
    # the monic basis has large denominators, so its integer reducers
    # have leading coefficients far from 1, and fraction-free division
    # rescales the dividend at most steps
    gb = buchberger(gens)
    assert gb.generators == _reference_buchberger(gens)
    assert normal_form(f, gb) == _reference_reduce(f, gb.generators)


@pytest.mark.parametrize(
    "gens",
    [
        [],
        (),
        [v(2, 0), v(3, 0)],
        [MPoly.zero(2), MPoly.zero(3)],  # rings are compared before zeros are dropped
        [v(2, 0), v(2, 1), MPoly.one(3)],
    ],
)
def test_buchberger_refuses_empty_or_mixed_input(gens):
    with pytest.raises(ValueError):
        buchberger(gens)


def test_buchberger_keeps_pairs_whose_lcm_the_update_must_not_drop():
    # a queued pair whose lcm equals its lcm with the new element must stay
    # queued (the guard of the B_k criterion); without the guard this
    # input loses a basis element
    gens = [
        MPoly(3, {(2, 0, 3): 2, (1, 3, 2): 2, (1, 0, 0): 3}),
        MPoly(3, {(3, 2, 1): -1}),
        MPoly(3, {(0, 2, 0): 1, (3, 0, 2): 2}),
    ]
    assert buchberger(gens).generators == _reference_buchberger(gens)
