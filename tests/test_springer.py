import copy
import gc
import pickle
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from tworow import linalg, springer
from tworow.cli import main
from tworow.groebner import buchberger, ideal_equal, quotient_dimension
from tworow.linalg import SparseExactRREF, solve_rational
from tworow.polynomials import (
    MPoly,
    format_poly,
    monomial_mul,
    parse_poly,
    variable_names,
)
from tworow.springer import (
    ConsistencyError,
    SpringerContext,
    basis_combination,
    basis_image_matrix,
    build_fixed_point,
    equivariant_ideal,
    fixed_points,
    fixed_points_bruteforce,
    ideal_by_name,
    kernel_ideal_comparisons,
    localize,
    localize_all,
    ordinary_ideal,
    ordinary_presentation_check,
    sample_monomials,
    squarefree_monomials,
    standard_monomial_basis,
    straighten_by_rewrite,
    straighten_by_solve,
    tanisaki_ideal,
    verify_relations,
    verify_square_reduction,
)
from tworow.tableaux import (
    Partition,
    TwoRowFilling,
    filling_from_monomial,
    is_standard,
    monomial_from_filling,
)
from tworow.tpoly import TPoly


def poly(text, n):
    return parse_poly(text, variable_names(n))


def test_context_validation():
    SpringerContext(4, 2)
    SpringerContext(1, 0)
    with pytest.raises(ValueError):
        SpringerContext(3, 2)
    with pytest.raises(ValueError):
        SpringerContext(0, 0)
    with pytest.raises(ValueError):
        SpringerContext(4, -1)


@pytest.mark.parametrize(
    "n, k, message",
    [
        (3, 2, "need 0 <= k <= n/2, got n=3, k=2"),
        (0, 0, "need n >= 1, got n=0"),
        (4, -1, "need 0 <= k <= n/2, got n=4, k=-1"),
    ],
)
def test_context_validation_texts(n, k, message):
    for build in (lambda: SpringerContext(n, k), lambda: SpringerContext(n=n, k=k)):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_context_compares_and_hashes_by_n_and_k_only():
    a, b = SpringerContext(4, 2), SpringerContext(n=4, k=2)
    fixed_points(a)  # fills a's cache, and only a's
    assert a.cache and not b.cache
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "SpringerContext(n=4, k=2)"
    assert a != SpringerContext(4, 1)


def test_replace_validates_and_gives_a_fresh_cache():
    ctx = SpringerContext(4, 2)
    fixed_points(ctx)
    other = ctx._replace(k=1)
    assert other == SpringerContext(4, 1) and other.cache == {} and ctx.cache
    with pytest.raises(ValueError, match="need 0 <= k <= n/2, got n=4, k=3"):
        ctx._replace(k=3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((2, 1))._replace(parts=(1, 2))
    with pytest.raises(ValueError, match="exactly once"):
        TwoRowFilling((1, 3), (2,))._replace(bottom=(3,))


def test_warm_context_pickles_and_copies_with_a_fresh_cache():
    # a context that has cached values still pickles, say for a worker
    # process, and no copy shares or carries its cache
    ctx = SpringerContext(4, 2)
    fixed_points(ctx)
    for copied in (pickle.loads(pickle.dumps(ctx)), copy.copy(ctx), copy.deepcopy(ctx)):
        assert type(copied) is SpringerContext and copied == ctx
        assert copied.cache == {} and copied.cache is not ctx.cache
    assert ctx.cache


def _records():
    """One value of every record type the library returns."""
    ctx = SpringerContext(4, 2)
    j = ordinary_ideal(ctx)
    return [
        ctx,
        fixed_points(ctx)[0],
        j,
        verify_relations(ctx),
        basis_image_matrix(ctx),
        kernel_ideal_comparisons(ctx),
        ordinary_presentation_check(ctx),
        Partition((2, 1)),
        TwoRowFilling(top=(1, 3), bottom=(2,)),
        buchberger(j.generators),
        ideal_equal(j.generators, tanisaki_ideal(ctx).generators),
    ]


def test_record_fields_cannot_be_assigned():
    records = _records()
    assert len({type(r) for r in records}) == 11
    for record in records:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value


def test_records_are_tuples_of_their_fields():
    for record in _records():
        assert record == tuple(getattr(record, name) for name in record._fields)
        assert hash(record) == hash(tuple(record))
    w = fixed_points(SpringerContext(4, 2))[-1]
    assert w == ((3, 4), (1, 2, 3, 4)) == (w.ell, w.w)


def test_cached_attributes_are_computed_once(core_determinant):
    # the solve's inverse and row bound are one value kept on the context;
    # the determinant is computed per call; a Groebner basis carries its
    # reducers as a field
    ctx = SpringerContext(4, 2)
    factored = springer._core_inverse(ctx)
    assert factored is springer._core_inverse(ctx)
    assert ctx.cache[springer._core_inverse.__wrapped__] is factored
    assert core_determinant(ctx) != 0
    basis = buchberger(ordinary_ideal(ctx).generators)
    assert basis.reducers is basis.reducers
    assert len(basis.reducers) == len(basis.generators)


# -- fixed points -------------------------------------------------------------


def test_build_fixed_point_examples():
    ctx = SpringerContext(4, 2)
    assert build_fixed_point(ctx, (1, 2)).w == (3, 4, 1, 2)
    assert build_fixed_point(ctx, (2, 4)).w == (1, 3, 2, 4)
    identity = build_fixed_point(SpringerContext(5, 0), ())
    assert identity.w == (1, 2, 3, 4, 5)


def test_build_fixed_point_rejections():
    ctx = SpringerContext(4, 2)
    with pytest.raises(ValueError):
        build_fixed_point(ctx, (2, 2))
    with pytest.raises(ValueError):
        build_fixed_point(ctx, (0, 3))
    with pytest.raises(ValueError):
        build_fixed_point(ctx, (3,))


def test_fixed_point_listing_matches_known_set():
    expected = [
        (3, 4, 1, 2),
        (3, 1, 4, 2),
        (3, 1, 2, 4),
        (1, 3, 4, 2),
        (1, 3, 2, 4),
        (1, 2, 3, 4),
    ]
    assert [w.w for w in fixed_points(SpringerContext(4, 2))] == expected


def test_fixed_point_order_preservation():
    # values 1..n-k and values n-k+1..n each appear in increasing order
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            for w in fixed_points(SpringerContext(n, k)):
                inverse = {v: i for i, v in enumerate(w.w)}
                low = [inverse[v] for v in range(1, n - k + 1)]
                high = [inverse[v] for v in range(n - k + 1, n + 1)]
                assert low == sorted(low)
                assert high == sorted(high)


def test_fixed_point_defining_formula():
    # position ell_j carries n-k+j; a position i strictly between ell_j
    # and ell_{j+1} carries i-j
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            for w in fixed_points(SpringerContext(n, k)):
                for j, pos in enumerate(w.ell, start=1):
                    assert w.w[pos - 1] == n - k + j
                for i in range(1, n + 1):
                    if i not in w.ell:
                        j = sum(1 for e in w.ell if e < i)
                        assert w.w[i - 1] == i - j


def test_quadratic_relation_case_analysis():
    # at every fixed point one factor of each quadratic generator dies:
    # either w(i) - w(i-1) = 1 or w(i) + w(i-1) = n - k + i, with w(0) = 0
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            for w in fixed_points(SpringerContext(n, k)):
                for i in range(1, n + 1):
                    prev = w.w[i - 2] if i > 1 else 0
                    assert (
                        w.w[i - 1] - prev == 1
                        or w.w[i - 1] + prev == n - k + i
                    )


def test_bruteforce_agrees_small():
    assert fixed_points_bruteforce(SpringerContext(2, 1)) == [(1, 2), (2, 1)]
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            assert sorted(w.w for w in fixed_points(ctx)) == fixed_points_bruteforce(ctx)
            assert len(fixed_points(ctx)) == comb(n, k)


def _invariant_by_definition(w, n, k):
    # the nilpotent kills e_1 and e_{n-k+1} and shifts every other e_v to
    # e_{v-1}; the flag survives iff each shifted vector appears earlier
    position = {v: i for i, v in enumerate(w)}
    return all(v in (1, n - k + 1) or position[v - 1] < i for i, v in enumerate(w))


def test_prefix_search_matches_filtering_every_permutation():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            expected = [
                w for w in permutations(range(1, n + 1)) if _invariant_by_definition(w, n, k)
            ]
            assert fixed_points_bruteforce(SpringerContext(n, k)) == expected


def test_fixed_point_count_6_3():
    assert len(fixed_points(SpringerContext(6, 3))) == 20


# -- ideals -------------------------------------------------------------------


def test_equivariant_generators_n2_k1():
    ctx = SpringerContext(2, 1)
    ideal = equivariant_ideal(ctx)
    by_label = dict(zip(ideal.labels, ideal.generators))
    assert by_label["linear"] == poly("x1 + x2 - 3*t", 2)
    assert by_label["quadratic i=1"] == poly("x1^2 - 3*x1*t + 2*t^2", 2)
    # the product family expands (x1 - t)(x2 - t)
    assert by_label["product i=1,2"] == poly("x1*x2 - x1*t - x2*t + t^2", 2)


def test_equivariant_generator_counts_and_degrees():
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            ideal = equivariant_ideal(ctx)
            assert len(ideal.generators) == 1 + n + comb(n, k + 1)
            for label, g in zip(ideal.labels, ideal.generators):
                assert len(g.homogeneous_components()) == 1
                if label == "linear":
                    assert g.total_degree() == 1
                elif label.startswith("quadratic"):
                    assert g.total_degree() == 2
                else:
                    assert g.total_degree() == k + 1


def test_product_family_for_point_contexts():
    # k = 0 turns the product family into x_i - i*t, pinning every value
    ctx = SpringerContext(3, 0)
    ideal = equivariant_ideal(ctx)
    products = [
        g for label, g in zip(ideal.labels, ideal.generators) if label.startswith("product")
    ]
    assert products == [poly(f"x{i} - {i}*t", 3) for i in (1, 2, 3)]


def test_ordinary_generators_n2_k1():
    gens = set(ordinary_ideal(SpringerContext(2, 1)).generators)
    names = variable_names(2, include_t=False)
    expected = {
        parse_poly(s, names) for s in ("x1 + x2", "x1^2", "x2^2", "x1*x2")
    }
    assert gens == expected


def test_tanisaki_generators_n3_k1():
    ideal = tanisaki_ideal(SpringerContext(3, 1))
    names = variable_names(3, include_t=False)
    assert len(ideal.generators) == 1 + 3 + 3
    by_label = dict(zip(ideal.labels, ideal.generators))
    assert by_label["e1"] == parse_poly("x1 + x2 + x3", names)
    # pairs appear twice: once per (n-1)-subset, once per (k+1)-subset
    assert by_label["e2 i=1,2"] == parse_poly("x1*x2", names)
    assert by_label["e2 i=2,3"] == parse_poly("x2*x3", names)


def _at_t_zero(g):
    """g with t, its last variable, set to zero and its slot dropped."""
    return MPoly(g.nvars - 1, {m[:-1]: c for m, c in g.terms.items() if not m[-1]})


def test_specialized_generators_drop_t():
    ideal = equivariant_ideal(SpringerContext(3, 1))
    gens = [_at_t_zero(g) for g in ideal.generators]
    names = variable_names(3, include_t=False)
    assert gens[0] == parse_poly("x1 + x2 + x3", names)
    assert gens[1] == parse_poly("x1^2", names)
    assert gens[2] == parse_poly("x2^2 - x1^2", names)


def _reference_equivariant_generators(ctx):
    """I's generators written from the paper's formulas with MPoly
    arithmetic, independently of the library's integer expansion."""
    n, k, t = ctx.n, ctx.k, ctx.t()
    linear = MPoly.zero(ctx.nvars)
    for i in range(1, n + 1):
        linear = linear + ctx.x(i)
    gens = [linear - t * Fraction(n * (n + 1), 2)]
    for i in range(1, n + 1):
        xi = ctx.x(i)
        xprev = ctx.x(i - 1) if i > 1 else MPoly.zero(ctx.nvars)
        gens.append((xi + xprev - (n - k + i) * t) * (xi - xprev - t))
    for subset in combinations(range(1, n + 1), k + 1):
        product = MPoly.one(ctx.nvars)
        for j, idx in enumerate(subset):
            product = product * (ctx.x(idx) - (idx - j) * t)
        gens.append(product)
    return gens


@pytest.mark.parametrize("n", range(1, 8))
def test_equivariant_generators_match_mpoly_reference(n):
    # the integer expansion of every product of linear forms, term for
    # term against MPoly products of the same forms
    for k in range(n // 2 + 1):
        ctx = SpringerContext(n, k)
        assert list(equivariant_ideal(ctx).generators) == _reference_equivariant_generators(ctx)


# -- localization -------------------------------------------------------------


def test_localize_examples():
    ctx = SpringerContext(4, 2)
    w = build_fixed_point(ctx, (1, 2))  # [3, 4, 1, 2]
    assert localize(ctx.x(1), w) == TPoly.term(3, 1)
    linear = equivariant_ideal(ctx).generators[0]
    for point in fixed_points(ctx):
        assert localize(linear, point) == TPoly.zero()
    w2 = build_fixed_point(ctx, (2, 4))  # [1, 3, 2, 4]
    assert localize(ctx.x(1) * ctx.x(2), w2) == TPoly.term(3, 2)


_polys31 = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(4))),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=4,
).map(lambda terms: MPoly(4, terms))


@given(_polys31, _polys31)
@settings(max_examples=40, deadline=None)
def test_localize_is_a_ring_homomorphism(f, g):
    ctx = SpringerContext(3, 1)
    for w in fixed_points(ctx):
        assert localize(f + g, w) == localize(f, w) + localize(g, w)
        assert localize(f * g, w) == localize(f, w) * localize(g, w)


def test_localize_rejects_wrong_ring():
    ctx = SpringerContext(4, 2)
    w = fixed_points(ctx)[0]
    with pytest.raises(ValueError):
        localize(MPoly.variable(3, 0), w)


def test_localize_all_and_homogeneous_shape():
    ctx = SpringerContext(3, 1)
    values = localize_all(ctx.x(2) * ctx.t(), ctx)
    assert set(values) == set(fixed_points(ctx))
    for w, value in values.items():
        assert value == TPoly.term(w.w[1], 2)


def test_relations_vanish():
    for n in range(1, 6):
        for k in range(n // 2 + 1):
            report = verify_relations(SpringerContext(n, k))
            assert report.ok
            assert report.generators_checked == 1 + n + comb(n, k + 1)


def test_relations_n4_k2_counts():
    report = verify_relations(SpringerContext(4, 2))
    assert report.generators_checked == 9
    assert report.fixed_points_checked == 6


@st.composite
def _homogeneous(draw, n):
    """A homogeneous polynomial in x1..xn, t with rational coefficients."""
    degree = draw(st.integers(0, 4))

    def monomial(cuts):
        cuts = sorted(cuts)
        bounds = [0, *cuts, degree]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    monos = st.lists(st.integers(0, degree), min_size=n, max_size=n).map(monomial)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=5))
    return degree, MPoly(n + 1, terms)


def _component_sums(ctx, component):
    """The values of a homogeneous component at every fixed point, as
    integers s_w over one denominator D > 0 with value s_w / D, summed
    term by term from ``_monomial_values``: the reference for the sums
    that the solve route builds in its one pass over a polynomial's terms."""
    columns = springer._value_columns(ctx)
    scale = lcm(1, *(c.denominator for c in component.terms.values()))
    sums = [0] * len(fixed_points(ctx))
    for mono, c in component.terms.items():
        factor = c.numerator * (scale // c.denominator)
        values = springer._monomial_values(columns, mono[: ctx.n])
        sums = [s + factor * v for s, v in zip(sums, values)]
    return sums, scale


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_monomial_values_match_localize(n, k, data):
    # integer monomial values read over one common denominator give the
    # t^d coefficient that localize computes point by point
    ctx = SpringerContext(n, k)
    columns = springer._value_columns(ctx)
    degree, f = data.draw(_homogeneous(n))
    sums, scale = _component_sums(ctx, f)
    assert scale > 0
    assert [Fraction(s, scale) for s in sums] == [
        localize(f, w).coefficient(degree) for w in fixed_points(ctx)
    ]
    for mono in f.terms:
        assert springer._monomial_values(columns, mono[:n]) == tuple(
            localize(MPoly.from_monomial(mono[:n] + (0,)), w).coefficient(sum(mono[:n]))
            for w in fixed_points(ctx)
        )


def _expand(ctx, forms):
    """The product of linear forms {slot: coefficient} over x1..xn, t, by
    MPoly arithmetic."""
    product = MPoly.one(ctx.nvars)
    for form in forms:
        units = {tuple(int(q == p) for q in range(ctx.nvars)): c for p, c in form.items()}
        product = product * MPoly(ctx.nvars, units)
    return product


def _reference_relation_failures(ctx, pairs):
    """The expanded check the factor evaluation replaced, kept as its
    reference: each generator of the (label, forms) list multiplied out,
    split into homogeneous components, and each component's values read
    at every fixed point; a point fails when some component is nonzero."""
    points = fixed_points(ctx)
    failures = []
    for label, forms in pairs:
        nonzero = [False] * len(points)
        for component in _expand(ctx, forms).homogeneous_components().values():
            sums, _ = _component_sums(ctx, component)
            nonzero = [bad or s != 0 for bad, s in zip(nonzero, sums)]
        failures.extend((label, w.ell) for w, bad in zip(points, nonzero) if bad)
    return tuple(failures)


@pytest.mark.parametrize("n", range(1, 9))
def test_relations_match_the_expanded_reference(n):
    for k in range(n // 2 + 1):
        ctx = SpringerContext(n, k)
        expected = _reference_relation_failures(ctx, springer._generator_forms(ctx))
        assert verify_relations(ctx).failures == expected == (), (n, k)


def _patch_forms(monkeypatch, ctx, label, change):
    """Make springer._generator_forms return, at ctx only, its list with
    the forms of this label replaced by change(forms)."""
    original = springer._generator_forms

    def patched(c):
        pairs = original(c)
        if c == ctx:
            i = [name for name, _ in pairs].index(label)
            pairs[i] = (label, change(pairs[i][1]))
        return pairs

    monkeypatch.setattr(springer, "_generator_forms", patched)


def _shift_quadratic_4_t(monkeypatch, ctx):
    # x4 - x3 - t becomes x4 - x3 - 2t: the image at t = 0 is unchanged
    def shifted(forms):
        plus, minus = forms
        return [plus, {**minus, ctx.n: minus[ctx.n] - 1}]

    _patch_forms(monkeypatch, ctx, "quadratic i=4", shifted)


@pytest.mark.parametrize("n, k", [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3), (8, 4)])
def test_relations_fail_closed_on_a_wrong_t_coefficient(n, k, monkeypatch):
    # quadratic i=4 with a t coefficient off by one no longer vanishes
    # where w(4) - w(3) = 1 and its other factor is nonzero; the factor
    # evaluation names the same points as the expanded reference
    ctx = SpringerContext(n, k)
    _shift_quadratic_4_t(monkeypatch, ctx)
    expected = _reference_relation_failures(ctx, springer._generator_forms(ctx))
    assert expected and {label for label, _ in expected} == {"quadratic i=4"}
    assert verify_relations(ctx).failures == expected
    assert not kernel_ideal_comparisons(ctx).generators_vanish


def _shift_last_product_t(monkeypatch, ctx):
    # the last product's last factor x_n - (n-k) t becomes x_n - (n-k+1) t;
    # x_n - (n-k) t stays a factor of every earlier product ending in n
    label = "product i=" + ",".join(map(str, range(ctx.n - ctx.k, ctx.n + 1)))

    def shifted(forms):
        return [*forms[:-1], {**forms[-1], ctx.n: forms[-1][ctx.n] - 1}]

    _patch_forms(monkeypatch, ctx, label, shifted)
    return label


@pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 2), (6, 3), (8, 4)])
def test_relations_key_forms_by_their_t_coefficient(n, k, monkeypatch):
    # a form that differs from a factor of other generators only in its
    # t coefficient gets its own vanishing set: the failures are the
    # reference's, and non-empty
    ctx = SpringerContext(n, k)
    label = _shift_last_product_t(monkeypatch, ctx)
    forms = dict(springer._generator_forms(ctx))
    assert any(forms[label][-1][ctx.n] + 1 == f[ctx.n] and forms[label][-1].keys() == f.keys()
               for other, factors in forms.items() if other != label for f in factors)
    expected = _reference_relation_failures(ctx, springer._generator_forms(ctx))
    assert expected and {name for name, _ in expected} == {label}
    assert verify_relations(ctx).failures == expected


# -- square rewriting ---------------------------------------------------------


def _square_reduction(ctx, i):
    """What x_i^2 equals modulo the ideal, i = 1..n: entry i - 1 of the
    rewrite step's ``springer._square_rules`` as a polynomial."""
    return MPoly(ctx.nvars, dict(springer._square_rules(ctx)[i - 1]))


def test_square_reduction_n2():
    ctx = SpringerContext(2, 1)
    assert _square_reduction(ctx, 1) == poly("3*x1*t - 2*t^2", 2)
    # localization check at both fixed points: x1 takes values 2t and t
    x1sq = ctx.x(1) * ctx.x(1)
    for w in fixed_points(ctx):
        assert localize(x1sq, w) == localize(_square_reduction(ctx, 1), w)


def test_square_reduction_n4():
    ctx = SpringerContext(4, 2)
    assert _square_reduction(ctx, 2) == poly("5*x2*t + x1*t - 7*t^2", 4)


def test_telescoping_identity():
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            assert verify_square_reduction(SpringerContext(n, k))


# -- straightening ------------------------------------------------------------


def test_basis_matrix_n2(core_determinant):
    ctx = SpringerContext(2, 1)
    bm = basis_image_matrix(ctx)
    assert [t.bottom for t in standard_monomial_basis(ctx)] == [(), (2,)]
    assert [w.w for w in fixed_points(ctx)] == [(2, 1), (1, 2)]
    assert bm.integer_core == ((1, 1), (1, 2))
    assert core_determinant(ctx) == 1
    assert springer._core_inverse(ctx) == ((((2, -1), (-1, 1)), 1), 3)


def test_basis_matrix_point(core_determinant):
    ctx = SpringerContext(1, 0)
    assert basis_image_matrix(ctx).integer_core == ((1,),)
    assert core_determinant(ctx) == 1


def test_basis_matrix_determinant_factorization(cofactor_det, core_determinant):
    # every image x_T at w is its integer core entry times t^(size of the
    # bottom of T), so by multilinearity the Q[t] determinant is the core
    # determinant times t^(sum of bottom sizes); the core determinant is
    # cross-checked against cofactor expansion
    for n, k in ((3, 1), (4, 2), (5, 2)):
        ctx = SpringerContext(n, k)
        bm = basis_image_matrix(ctx)
        for w, core_row in zip(fixed_points(ctx), bm.integer_core):
            for tab, weight in zip(standard_monomial_basis(ctx), core_row):
                mono = [0] * ctx.nvars
                for j in tab.bottom:
                    mono[j - 1] = 1
                image = localize(MPoly.from_monomial(tuple(mono)), w)
                assert image == TPoly.term(weight, tab.ell)
        assert core_determinant(ctx) == cofactor_det(bm.integer_core) != 0


def test_basis_matrix_inverse_invariants(core_determinant):
    # the stored factorization is the exact inverse of the core, the
    # classical adjugate core_determinant * adj / d is integral, and the
    # stored row bound is adj's largest absolute row sum
    for n, k in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3)):
        ctx = SpringerContext(n, k)
        (adj, d), bound = springer._core_inverse(ctx)
        core = basis_image_matrix(ctx).integer_core
        size = len(core)
        assert d > 0
        for i in range(size):
            for j in range(size):
                entry = sum(core[i][m] * adj[m][j] for m in range(size))
                assert entry == (d if i == j else 0)
        assert all(core_determinant(ctx) * a % d == 0 for row in adj for a in row)
        assert bound == max(sum(map(abs, row)) for row in adj)


def test_straightening_solve_never_computes_the_core_determinant(monkeypatch, core_determinant):
    def refused(core):
        raise AssertionError("the solve read the core determinant")

    # Bareiss is reached only through linalg: springer binds no copy of it
    assert not hasattr(springer, "integer_det_bareiss")
    monkeypatch.setattr(linalg, "integer_det_bareiss", refused)
    ctx = SpringerContext(5, 2)
    f = poly("x1^2*x3 - 2*x4*t^2 + x5", 5)
    assert straighten_by_solve(f, ctx) == straighten_by_rewrite(f, ctx)
    with pytest.raises(AssertionError, match="read the core determinant"):
        core_determinant(ctx)


def test_core_determinant_residues_match_bareiss():
    # for every core with n <= 9, the residue mod each prime is the Bareiss
    # determinant's, and the witness is the first prime's nonzero residue
    for n in range(1, 10):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            core = basis_image_matrix(ctx).integer_core
            det = linalg.integer_det_bareiss(core)
            for p in springer.DETERMINANT_PRIMES:
                assert springer._determinant_residue(core, p) == det % p, (n, k, p)
            p = next(p for p in springer.DETERMINANT_PRIMES if det % p)
            assert springer.core_determinant_residue(ctx) == (p, det % p)


def test_determinant_residue_swaps_rows_and_finds_singular_matrices():
    # a zero leading entry swaps rows, flipping the sign; a dependent row,
    # or a determinant that is a multiple of p, gives the residue 0
    cases = [
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 2, 1], [3, 0, 5], [1, 4, 0]], None),
        ([[1, 2], [2, 4]], 0),
        ([[7, 0], [0, 5]], 35),
        ([[-3, 10**40], [2, -(10**12)]], None),
    ]
    for matrix, det in cases:
        det = linalg.integer_det_bareiss(matrix) if det is None else det
        for p in (5, 7, 2147483647):
            assert springer._determinant_residue(matrix, p) == det % p, (matrix, p)


def test_determinant_primes_are_prime():
    # trial division by every integer up to the square root: the three
    # moduli are prime, in decreasing order, the three largest below 2^31
    def is_prime(m):
        return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))

    primes = springer.DETERMINANT_PRIMES
    assert all(map(is_prime, primes))
    assert [m for m in range(primes[-1], 2**31) if is_prime(m)] == sorted(primes)


def test_core_determinant_residue_tries_the_next_prime(monkeypatch, core_determinant):
    # a zero residue moves on to the next prime; when all three vanish
    # there is no witness
    seen = []
    original = springer._determinant_residue

    def first_vanishes(matrix, p):
        seen.append(p)
        return 0 if p == springer.DETERMINANT_PRIMES[0] else original(matrix, p)

    monkeypatch.setattr(springer, "_determinant_residue", first_vanishes)
    ctx = SpringerContext(5, 2)
    det = core_determinant(ctx)
    second = springer.DETERMINANT_PRIMES[1]
    assert springer.core_determinant_residue(ctx) == (second, det % second)
    assert seen == list(springer.DETERMINANT_PRIMES[:2])
    monkeypatch.setattr(springer, "_determinant_residue", lambda matrix, p: seen.append(p) and 0)
    seen.clear()
    assert springer.core_determinant_residue(ctx) is None
    assert seen == list(springer.DETERMINANT_PRIMES)


def test_standard_monomial_basis_size():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            assert len(standard_monomial_basis(SpringerContext(n, k))) == comb(n, k)


def test_straighten_basis_elements_fixed():
    ctx = SpringerContext(4, 2)
    for tab in standard_monomial_basis(ctx):
        mono = [0] * 5
        for j in tab.bottom:
            mono[j - 1] = 1
        p = MPoly.from_monomial(tuple(mono))
        for method in (straighten_by_solve, straighten_by_rewrite):
            assert method(p, ctx) == {tab: TPoly.one()}


def test_straighten_x1_example():
    ctx = SpringerContext(2, 1)
    expected = {
        TwoRowFilling(top=(1, 2), bottom=()): TPoly.term(3, 1),
        TwoRowFilling(top=(1,), bottom=(2,)): TPoly.term(-1),
    }
    assert straighten_by_solve(ctx.x(1), ctx) == expected
    assert straighten_by_rewrite(ctx.x(1), ctx) == expected


def test_straighten_x1_squared_example():
    # two-step reduction: x1^2 -> 3t x1 - 2t^2 -> 7t^2 - 3t x2, confirmed
    # against the localization values (4t^2, t^2)
    ctx = SpringerContext(2, 1)
    expected = {
        TwoRowFilling(top=(1, 2), bottom=()): TPoly.term(7, 2),
        TwoRowFilling(top=(1,), bottom=(2,)): TPoly.term(-3, 1),
    }
    p = ctx.x(1) * ctx.x(1)
    assert straighten_by_solve(p, ctx) == expected
    assert straighten_by_rewrite(p, ctx) == expected
    values = localize_all(p, ctx)
    assert [str(values[w]) for w in fixed_points(ctx)] == ["4*t^2", "t^2"]
    assert localize_all(basis_combination(expected, ctx), ctx) == values


def test_straighten_product_route():
    # x1 x2 x3 exceeds the basis degree for k = 2, forcing the product rule
    ctx = SpringerContext(4, 2)
    p = ctx.x(1) * ctx.x(2) * ctx.x(3)
    assert straighten_by_solve(p, ctx) == straighten_by_rewrite(p, ctx)


def test_straighten_matches_oracle_solve(cofactor_det):
    # Cramer's rule on the integer core, with cofactor determinants, is an
    # oracle independent of the stored inverse: each homogeneous component
    # of degree d contributes det(core with column T replaced by the t^d
    # coefficients of its images) / det(core) * t^(d - size of bottom)
    ctx = SpringerContext(3, 1)
    bm = basis_image_matrix(ctx)
    core = [list(row) for row in bm.integer_core]
    det = cofactor_det(core)
    # integer coefficients, then different denominators in different
    # degrees, which the solve route carries as one integer denominator
    for text in ("x1^2*x2 - 3*t*x3 + x2", "3/4*x2 + 1/3*x1*x3 - 5/7*t*x1^2 + 2/9*t^3"):
        p = poly(text, 3)
        expected = {}
        for degree, component in p.homogeneous_components().items():
            values = [localize(component, w).coefficient(degree) for w in fixed_points(ctx)]
            for col, tab in enumerate(standard_monomial_basis(ctx)):
                replaced = [row[:col] + [v] + row[col + 1 :] for row, v in zip(core, values)]
                coeff = Fraction(cofactor_det(replaced), det)
                if coeff:
                    term = TPoly.term(coeff, degree - tab.ell)
                    expected[tab] = expected.get(tab, TPoly.zero()) + term
        expected = {tab: c for tab, c in expected.items() if c}
        assert straighten_by_solve(p, ctx) == expected, text
        assert straighten_by_rewrite(p, ctx) == expected, text


def _straighten_per_degree(f, ctx):
    """The solve route without packing, as a reference: one solve_rational
    call per homogeneous component, each over its own denominator."""
    matrix = basis_image_matrix(ctx)
    by_degree = {}
    for degree, component in f.homogeneous_components().items():
        sums, scale = _component_sums(ctx, component)
        numerators, d = solve_rational(springer._core_inverse(ctx)[0], sums)
        nonzero = tuple((b, a) for b, a in zip(matrix.column_keys, numerators) if a)
        by_degree[degree] = nonzero, d * scale
    return springer._coefficient_polys(ctx, by_degree)


@st.composite
def _many_degrees(draw, n):
    """1-12 terms in x1..xn, t of total degree up to 8 (n + 1), with
    numerators up to 10^12 and denominators up to 10^6."""
    exponents = st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1).map(tuple)
    coeffs = st.builds(
        Fraction,
        st.integers(-(10**12), 10**12).filter(bool),
        st.integers(1, 10**6),
    )
    return MPoly(n + 1, draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=12)))


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_solve_matches_per_degree_solves(n, k, data):
    ctx = SpringerContext(n, k)
    f = data.draw(_many_degrees(n))
    solved = straighten_by_solve(f, ctx)
    assert solved == _straighten_per_degree(f, ctx)
    assert solved == straighten_by_rewrite(f, ctx)


def _counting_solves(monkeypatch):
    """Count the solves through the name springer calls."""
    calls = []

    def counted(inverse, rhs):
        calls.append(rhs)
        return solve_rational(inverse, rhs)

    monkeypatch.setattr(springer, "solve_rational", counted)
    return calls


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
def test_zero_straightens_to_nothing_without_a_solve(n, k, monkeypatch):
    ctx = SpringerContext(n, k)
    calls = _counting_solves(monkeypatch)
    zero = MPoly.zero(ctx.nvars)
    assert straighten_by_solve(zero, ctx) == {} == straighten_by_rewrite(zero, ctx)
    assert calls == []


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_multiples_of_the_linear_generator_change_neither_route(n, k, data):
    # e1 - n(n+1)/2 t vanishes at every fixed point, so adding any multiple
    # of it to f leaves both routes' coordinates as they are; alone, it
    # straightens to nothing
    ctx = SpringerContext(n, k)
    ideal = equivariant_ideal(ctx)
    assert ideal.labels[0] == "linear"
    linear = ideal.generators[0]
    assert _component_sums(ctx, linear) == ([0] * len(fixed_points(ctx)), 1)
    f = data.draw(_many_degrees(n))
    _, multiplier = data.draw(_homogeneous(n))
    expected = straighten_by_solve(f, ctx)
    assert expected == straighten_by_rewrite(f, ctx)
    g = f + multiplier * linear
    assert straighten_by_solve(g, ctx) == expected == straighten_by_rewrite(g, ctx)
    assert straighten_by_solve(linear, ctx) == {} == straighten_by_rewrite(linear, ctx)


def test_packed_solve_splits_at_the_bit_budget(monkeypatch):
    # a small budget closes a pack every few degrees; the solves are
    # counted through the name springer calls
    ctx = SpringerContext(5, 2)
    f = poly(" + ".join(f"{d}/7*x{d % 5 + 1}^{d}*t" for d in range(1, 13)), 5)
    calls = _counting_solves(monkeypatch)
    unpacked = _straighten_per_degree(f, ctx)  # calls the test's own binding
    monkeypatch.setattr(springer, "PACK_BITS", 128)
    assert straighten_by_solve(f, ctx) == unpacked == straighten_by_rewrite(f, ctx)
    assert 2 <= len(calls) < 12
    calls.clear()
    monkeypatch.setattr(springer, "PACK_BITS", 4096)
    assert straighten_by_solve(f, ctx) == unpacked
    assert len(calls) == 1


def test_packed_solve_of_a_high_power():
    ctx = SpringerContext(4, 2)
    f = poly("x1^2000 + x2 + 1", 4)
    started = time.perf_counter()
    solved = straighten_by_solve(f, ctx)
    assert time.perf_counter() - started < 1
    assert solved == straighten_by_rewrite(f, ctx) == _straighten_per_degree(f, ctx)


def test_packed_solve_refuses_bits_above_its_top_slot(monkeypatch):
    # a row bound too small for the numerators makes the slots overflow;
    # the decoding must notice rather than return shifted coordinates
    ctx = SpringerContext(4, 2)
    f = poly("x1^5 + 3*x2^2*t + 7", 4)
    inverse, _ = springer._core_inverse(ctx)
    monkeypatch.setitem(ctx.cache, springer._core_inverse.__wrapped__, (inverse, 0))
    with pytest.raises(ConsistencyError, match="top slot"):
        straighten_by_solve(f, ctx)


def test_straighten_agreement_all_monomials_small():
    # every x-monomial of x-degree at most 5, both routes, n <= 5
    def x_monomials(n, dmax):
        def rec(prefix, remaining, slots):
            if slots == 0:
                yield prefix
                return
            for e in range(remaining + 1):
                yield from rec(prefix + (e,), remaining - e, slots - 1)

        for d in range(dmax + 1):
            for mono in rec((), d, n):
                if sum(mono) == d:
                    yield mono + (0,)

    for n in range(1, 6):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            for mono in x_monomials(n, 5):
                p = MPoly.from_monomial(mono)
                solved = straighten_by_solve(p, ctx)
                rewritten = straighten_by_rewrite(p, ctx)
                assert solved == rewritten, (n, k, mono)
                # the two sides also localize identically
                rebuilt = basis_combination(solved, ctx)
                assert localize_all(rebuilt, ctx) == localize_all(p, ctx)


def test_straighten_handles_t_and_sums():
    ctx = SpringerContext(3, 1)
    p = poly("x1*x2 - 2*t*x3 + 1/2*t^2", 3)
    assert straighten_by_solve(p, ctx) == straighten_by_rewrite(p, ctx)


def test_straighten_remainder_lies_in_ideal():
    # third route: the difference f - sum c_T x_T reduces to zero against
    # a Groebner basis of the equivariant ideal itself
    from tworow.groebner import buchberger, normal_form

    for n, k in ((2, 1), (3, 1), (4, 2)):
        ctx = SpringerContext(n, k)
        gb = buchberger(list(equivariant_ideal(ctx).generators))
        for text in ("x1^2*x2", "x1*x2 + 3*t*x1", f"x{n}^3"):
            p = poly(text, n)
            rebuilt = basis_combination(straighten_by_rewrite(p, ctx), ctx)
            assert not normal_form(p - rebuilt, gb)


def test_straighten_rejects_wrong_ring():
    ctx = SpringerContext(3, 1)
    with pytest.raises(ValueError):
        straighten_by_solve(MPoly.variable(3, 0), ctx)
    with pytest.raises(ValueError):
        straighten_by_rewrite(MPoly.variable(5, 0), ctx)


_weights = st.tuples(
    st.dictionaries(st.integers(0, 3), st.integers(-30, 30), max_size=4),
    st.integers(-30, 30),
).map(lambda pair: {**pair[0], 4: pair[1]})  # slot 4 is t


@given(
    weights=_weights,
    j=st.integers(0, 4),
    base=st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple),
)
@settings(max_examples=80, deadline=None)
def test_power_terms_match_mpoly_powers(weights, j, base):
    # the j factors of _linear_product the rewrite route multiplies out for
    # the powers of the linear relation, against repeated MPoly products
    linear = MPoly(5, {tuple(int(q == p) for q in range(5)): w for p, w in weights.items()})
    expected = linear**j * MPoly.from_monomial(base)
    assert MPoly(5, springer._power_terms(weights, j, base)) == expected


_forms = st.lists(
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5), max_size=4
)  # slot 4 is t; forms share slots and may hold zero coefficients


@given(forms=_forms, base=st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple))
@settings(max_examples=100, deadline=None)
def test_linear_product_matches_mpoly_products(forms, base):
    # the one expansion of products of linear forms, against MPoly products
    expected = MPoly.from_monomial(base)
    for form in forms:
        slots = {tuple(int(q == p) for q in range(5)): c for p, c in form.items()}
        expected = expected * MPoly(5, slots)
    terms = springer._linear_product(forms, base)
    assert all(terms.values())  # zero terms are dropped
    assert MPoly(5, terms) == expected


def test_rewrite_cancellation_coefficient_is_factorial():
    # the monomial cancelled through the j-th power of the linear relation
    # carries coefficient j!, not 1; spot-check j = 2 via x2 x3 for n = 4,
    # whose filling (top (1, 4), bottom (2, 3)) has its first bad column at 2
    from tworow.springer import _rewrite_expansion

    ctx = SpringerContext(4, 2)
    target = (0, 1, 1, 0, 0)
    # independent reconstruction of the cancelling combination
    d = (poly("x2 + x3 + x4 - 10*t", 4) ** 2) - (poly("x1", 4) ** 2)
    assert d.coefficient(target) == factorial(2)
    # the step must divide by that computed coefficient
    terms, divisor = _rewrite_expansion(ctx, (0, 1, 1, 0))
    assert divisor == factorial(2)
    assert target not in dict(terms)
    assert MPoly(5, dict(terms)) == MPoly.from_monomial(target, divisor) - d


def _reference_rewrite_expansion(ctx, alpha):
    """One rewriting step built from MPoly products and powers, with the
    square rule and the product relation written out independently of
    the library's integer terms."""
    n, k = ctx.n, ctx.k
    t = ctx.t()
    for pos in range(n):
        if alpha[pos] >= 2:
            i = pos + 1
            rhs = (n - k + i + 1) * (t * ctx.x(i))
            for p in range(1, i):
                rhs = rhs + t * ctx.x(p)
            rhs = rhs - sum(n - k + p for p in range(1, i + 1)) * (t * t)
            rest = list(alpha) + [0]
            rest[pos] -= 2
            return rhs * MPoly.from_monomial(tuple(rest))
    support = tuple(i + 1 for i in range(n) if alpha[i])
    if len(support) >= k + 1:
        chosen = support[: k + 1]
        relation = MPoly.one(ctx.nvars)
        head = MPoly.one(ctx.nvars)
        for j, idx in enumerate(chosen):
            relation = relation * (ctx.x(idx) - (idx - j) * t)
            head = head * ctx.x(idx)
        remainder = MPoly.one(ctx.nvars)
        for idx in support[k + 1 :]:
            remainder = remainder * ctx.x(idx)
        return (head - relation) * remainder
    filling = filling_from_monomial(alpha + (0,), n)
    top, bottom = filling.top, filling.bottom
    j = next(r for r in range(len(bottom)) if top[r] > bottom[r]) + 1
    head_sum = MPoly.zero(ctx.nvars)
    for r in range(j - 1):
        head_sum = head_sum + ctx.x(top[r])
    rest_sum = -Fraction(n * (n + 1), 2) * t
    for idx in bottom + top[j - 1 :]:
        rest_sum = rest_sum + ctx.x(idx)
    tail = MPoly.one(ctx.nvars)
    for b in bottom[j:]:
        tail = tail * ctx.x(b)
    difference = (rest_sum**j - (-head_sum) ** j) * tail
    target = monomial_from_filling(filling)
    return MPoly.from_monomial(target) - difference * (1 / difference.coefficient(target))


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(1, 7) for k in range(n // 2 + 1)] + [(7, 3)]
)
def test_rewrite_steps_match_reference(n, k, monkeypatch):
    # every step the rewrite takes, as integer terms over a divisor, equals
    # the MPoly construction of the same step
    ctx = SpringerContext(n, k)
    steps = {}

    def recording(ctx, alpha):
        step = expand(ctx, alpha)
        if step is not None:  # None keeps a basis monomial as its own key
            steps[alpha] = step
        return step

    expand = springer._rewrite_expansion
    monkeypatch.setattr(springer, "_rewrite_expansion", recording)
    for mono in sample_monomials(ctx, 40, 6) + squarefree_monomials(ctx, k + 2):
        straighten_by_rewrite(MPoly.from_monomial(mono), ctx)
    for alpha, (terms, divisor) in steps.items():
        assert divisor > 0 and all(isinstance(c, int) for _, c in terms), alpha
        expected = _reference_rewrite_expansion(ctx, alpha)
        assert MPoly(ctx.nvars, dict(terms)) * Fraction(1, divisor) == expected, alpha
    if (n, k) == (7, 3):
        # the square rule, the product relation and powers j = 1, 2, 3
        assert any(max(alpha) >= 2 for alpha in steps)
        assert any(max(alpha) <= 1 and sum(alpha) > k for alpha in steps)
        assert {1, 2, 6} <= {divisor for _, divisor in steps.values()}


def test_rewrite_memo_entries_have_polynomial_t_powers():
    # each entry ((b, a), ...), D stands for a / D * t^(|alpha| - ell(T_b)) * x_T_b,
    # T_b the basis tableau whose bottom row has the bit set b: the implied
    # t-power is never negative, and the fraction is in lowest terms with
    # D > 0
    for n, k in ((4, 2), (5, 2), (6, 3)):
        ctx = SpringerContext(n, k)
        basis = {
            sum(1 << (j - 1) for j in tab.bottom): tab for tab in standard_monomial_basis(ctx)
        }
        for mono in sample_monomials(ctx, 40, 6) + squarefree_monomials(ctx, k + 2):
            straighten_by_rewrite(MPoly.from_monomial(mono), ctx)
        memo = springer._rewrite_memo(ctx)
        assert len(memo) > len(basis)
        for alpha, (numerators, denominator) in memo.items():
            assert all(basis[b].ell <= sum(alpha) and a for b, a in numerators), alpha
            assert denominator > 0, alpha
            assert gcd(denominator, *(a for _, a in numerators)) == 1, alpha
        # the lift stores the filling of each key it returned, and only those
        fillings = springer._bottom_row_fillings(ctx)
        assert fillings and all(basis[b] == tab for b, tab in fillings.items())


def test_rewrite_walk_tests_standardness_once_per_monomial(monkeypatch):
    # the rewrite step alone decides a monomial's rule, and the memo holds
    # each outcome, so the ballot scan runs once per context on each
    # squarefree monomial of degree at most k: exactly the memo's
    # squarefree entries of that degree, standard or not.  The lift vets
    # its keys by the tableau rule, so it adds no scan
    asked = []
    original = springer._first_bad_column
    monkeypatch.setattr(
        springer, "_first_bad_column", lambda mask, n: asked.append(mask) or original(mask, n)
    )
    for n, k in ((5, 2), (7, 3)):
        ctx = SpringerContext(n, k)
        asked.clear()
        monomials = sample_monomials(ctx, 60, 7) + squarefree_monomials(ctx, k + 2)
        for mono in monomials:
            straighten_by_rewrite(MPoly.from_monomial(mono), ctx)
        assert springer.straightening_mismatches(ctx, monomials) == 0
        memo = springer._rewrite_memo(ctx)
        low = [sum(e << i for i, e in enumerate(a)) for a in memo if max(a) <= 1 and sum(a) <= k]
        bad = [mask for mask in low if original(mask, n)]
        assert len(low) > len(bad) > 0 and springer._bottom_row_fillings(ctx)
        assert Counter(asked) == Counter(low)


def test_rewrite_memo_grows_only_as_needed():
    # a fresh memo is empty, and straightening x1 reaches the basis
    # monomials 1 and x2..x6 of the linear relation, not the whole basis
    ctx = SpringerContext(6, 3)
    assert springer._rewrite_memo(ctx) == {}
    straighten_by_rewrite(poly("x1", 6), ctx)
    memo = springer._rewrite_memo(ctx)
    assert set(memo) == {tuple(int(i == j) for i in range(6)) for j in range(-1, 6)}
    keys = {b for numerators, _ in memo.values() for b, _ in numerators}
    assert keys == {0, 2, 4, 8, 16, 32}


def test_coefficient_lift_refuses_negative_t_power():
    # a degree-0 coordinate at x2, whose tableau has ell = 1, would need t^-1
    ctx = SpringerContext(2, 1)
    basis = standard_monomial_basis(ctx)
    assert basis[1].bottom == (2,)
    x2 = 0b10  # the bottom-row bit set of that tableau
    with pytest.raises(ConsistencyError, match="non-polynomial"):
        springer._coefficient_polys(ctx, {0: (((x2, 1),), 1)})
    assert springer._coefficient_polys(ctx, {1: (((x2, 1),), 1)}) == {basis[1]: TPoly.one()}


@pytest.mark.parametrize(
    "broken, message",
    [
        # a step that returns its own monomial never terminates
        (lambda ctx, alpha: ([(alpha + (0,), 1)], 1), "cycled"),
        # a step that leaves the degree breaks the implied t-powers
        (lambda ctx, alpha: ([(alpha + (1,), 1)], 1), "left degree"),
    ],
    ids=["cycle", "inhomogeneous"],
)
def test_rewrite_fails_closed_on_a_broken_step(broken, message, monkeypatch):
    ctx = SpringerContext(3, 1)
    monkeypatch.setattr(springer, "_rewrite_expansion", broken)
    with pytest.raises(ConsistencyError, match=message):
        straighten_by_rewrite(poly("x1^2", 3), ctx)
    # no entry of the failed rewrite reached the memo
    assert springer._rewrite_memo(ctx) == {}


def test_rewrite_step_returns_none_for_every_basis_monomial():
    # a standard monomial has no bad column to cancel at: the step, which
    # alone picks each monomial's rule, returns None, and the walk keeps
    # the monomial as its own basis key
    for n, k in ((4, 2), (5, 2), (6, 3)):
        ctx = SpringerContext(n, k)
        for tab in standard_monomial_basis(ctx):
            assert springer._rewrite_expansion(ctx, monomial_from_filling(tab)[:n]) is None
        tab = standard_monomial_basis(ctx)[-1]
        alpha = monomial_from_filling(tab)
        straighten_by_rewrite(MPoly.from_monomial(alpha), ctx)
        key = sum(1 << (j - 1) for j in tab.bottom)
        assert springer._rewrite_memo(ctx) == {alpha[:n]: (((key, 1),), 1)}


def test_coefficient_lift_refuses_a_key_that_is_no_basis_key():
    # x1 is non-standard, x1 x3 has more than k = 1 bits and bit 4 lies
    # past x4: none is stored as a filling, so none can be printed
    ctx = SpringerContext(4, 1)
    for key in (0b1, 0b101, 0b10000):
        with pytest.raises(ConsistencyError, match="no basis key"):
            springer._coefficient_polys(ctx, {3: (((key, 1),), 1)})
    assert springer._bottom_row_fillings(ctx) == {}
    tab = standard_monomial_basis(ctx)[1]  # x2's, a basis key
    assert tab.bottom == (2,)
    assert springer._coefficient_polys(ctx, {1: (((0b10, 1),), 1)}) == {tab: TPoly.one()}


def test_rewriting_builds_no_filling(monkeypatch):
    # the walk and the step read bit sets only: filling the memo for the
    # straighten check's monomials at (7,3) builds no filling; only the
    # lift does, for the keys it returns
    ctx = SpringerContext(7, 3)
    built = []
    original = springer.filling_from_monomial
    monkeypatch.setattr(
        springer, "filling_from_monomial", lambda *a: built.append(a) or original(*a)
    )
    monomials = squarefree_monomials(ctx, ctx.k + 1) + sample_monomials(ctx)
    assert springer.straightening_mismatches(ctx, monomials) == 0
    assert len(springer._rewrite_memo(ctx)) > len(monomials) and built == []
    coefficients = straighten_by_rewrite(poly("x1*x2*x3", 7), ctx)
    assert len(built) == len(coefficients) > 0


# -- the straighten check: rewritten coordinates against localization --------


def _t_squared_plus_one(original):
    def patched(ctx):  # each rule's t^2 term, its last, one larger
        return tuple((*rule[:-1], (rule[-1][0], rule[-1][1] + 1)) for rule in original(ctx))

    return patched


def _last_t_coefficient_plus_one(original):
    def patched(ctx, indices):
        forms = original(ctx, indices)  # built afresh per call
        forms[-1][ctx.n] += 1
        return forms

    return patched


def _odd_t_powers_negated(original):
    def patched(weights, j, base):  # the t slot's weight, sign flipped
        return {m: -c if m[-1] % 2 else c for m, c in original(weights, j, base).items()}

    return patched


@pytest.mark.parametrize(
    "rule, patch, failures",
    [
        ("_square_rules", _t_squared_plus_one, {(3, 1): 19, (4, 2): 32, (5, 2): 34}),
        ("_product_forms", _last_t_coefficient_plus_one, {(3, 1): 30, (4, 1): 29, (5, 2): 24}),
        ("_power_terms", _odd_t_powers_negated, {(3, 1): 36, (4, 2): 39, (5, 2): 39}),
    ],
    ids=["square-rule", "product-rule", "power-sign"],
)
def test_straighten_check_fails_closed_on_a_wrong_rule(rule, patch, failures, monkeypatch, capsys):
    # each rule, once wrong, still rewrites every monomial, but into
    # coordinates that localize to something else
    monkeypatch.setattr(springer, rule, patch(getattr(springer, rule)))
    assert main(["verify", "--checks", "straighten", "--n-max", "5"]) == 1
    fail_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    for (n, k), count in failures.items():
        total = len(squarefree_monomials(SpringerContext(n, k), k + 1)) + 50
        assert any(
            line.startswith(f"FAIL straighten[n={n},k={k}]: {count} of {total} monomials")
            for line in fail_lines
        ), (n, k)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2)])
def test_the_rule_and_the_certificate_read_one_linear_relation(n, k, monkeypatch):
    # e1 - n(n+1)/2 t has one definition: with its t coefficient one off,
    # the relations certificate fails on the linear generator alone, and
    # the rewrite step's non-standard rule straightens wrongly
    original = springer._linear_form

    def t_plus_one(ctx):
        form = original(ctx)
        form[ctx.n] += 1
        return form

    monkeypatch.setattr(springer, "_linear_form", t_plus_one)
    ctx = SpringerContext(n, k)
    report = verify_relations(ctx)
    assert not report.ok
    assert {label for label, _ in report.failures} == {"linear"}
    assert springer.straightening_mismatches(ctx, _check_monomials(ctx)) > 0


def test_straighten_check_fails_closed_when_every_subset_scans_standard(monkeypatch, capsys):
    # a ballot scan that calls every subset standard makes the walk keep
    # non-standard monomials as basis keys; the check meets a coordinate
    # at a key that is no basis column and fails by name, no traceback
    monkeypatch.setattr(springer, "_first_bad_column", lambda mask, n: 0)
    assert main(["verify", "--checks", "straighten", "--n-max", "4"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL straighten[n={n},k={k}]" for n, k in ((2, 1), (3, 1), (4, 1), (4, 2))
    ]
    assert all("consistency error" in line and "no basis key" in line for line in failed)


def test_paper_straightening_refuses_a_key_the_tableau_rule_rejects(monkeypatch, capsys):
    # the lift checks each key by is_standard, not by the ballot scan that
    # decided it: with the scan calling every subset standard, x1 at (4,2)
    # would lift onto the non-standard key x1; it exits 1, printing nothing
    monkeypatch.setattr(springer, "_first_bad_column", lambda mask, n: 0)
    argv = ["straighten", "--n", "4", "--k", "2", "--method", "paper", "--poly", "x1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "no basis key" in captured.err


def test_straighten_check_monomials_agree_between_routes(monkeypatch, capsys):
    # what the check accepts by localization, the solve route finds too:
    # every monomial it straightens, at every context up to n = 6
    checked = []
    original = springer.straightening_mismatches

    def recorded(ctx, monomials):
        checked.append((ctx, monomials))
        return original(ctx, monomials)

    monkeypatch.setattr(springer, "straightening_mismatches", recorded)
    assert main(["verify", "--checks", "straighten", "--n-max", "6", "--k", "all"]) == 0
    capsys.readouterr()
    assert [(ctx.n, ctx.k) for ctx, _ in checked] == [
        (n, k) for n in range(1, 7) for k in range(n // 2 + 1)
    ]
    for ctx, monomials in checked:
        for mono in monomials:
            p = MPoly.from_monomial(mono)
            assert straighten_by_solve(p, ctx) == straighten_by_rewrite(p, ctx), (ctx, mono)


def test_straighten_check_refuses_a_key_past_the_degree(monkeypatch, capsys):
    # a degree-0 monomial given the coordinate x2 would need t^-1
    original = springer._straighten_x_monomial

    def overlong(ctx, alpha):
        return (((0b10, 1),), 1) if not any(alpha) else original(ctx, alpha)

    monkeypatch.setattr(springer, "_straighten_x_monomial", overlong)
    ctx = SpringerContext(2, 1)
    with pytest.raises(ConsistencyError, match="non-polynomial"):
        springer.straightening_mismatches(ctx, [(0, 0, 0)])
    assert springer.straightening_mismatches(ctx, [(0, 0, 1)]) == 1  # t has degree 1
    assert main(["verify", "--checks", "straighten", "--n-max", "2", "--k", "max"]) == 1
    fail_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.rsplit(" [", 1)[0] for line in fail_lines] == [
        f"FAIL straighten[n={n},k={n // 2}]: consistency error: {springer.NON_POLYNOMIAL}"
        for n in (1, 2)
    ]


def _reference_mismatches(ctx, monomials):
    # the comparison slot by slot: one N-entry integer list per coordinate
    matrix = basis_image_matrix(ctx)
    column = dict(zip(matrix.column_keys, zip(*matrix.integer_core)))
    mismatches = 0
    for mono in monomials:
        alpha = mono[: ctx.n]
        numerators, den = springer._straighten_x_monomial(ctx, alpha)
        sums = [0] * len(matrix.integer_core)
        for b, a in numerators:
            if b.bit_count() > sum(mono):
                raise ConsistencyError(springer.NON_POLYNOMIAL)
            sums = [s + a * v for s, v in zip(sums, column[b])]
        values = springer._monomial_values(springer._value_columns(ctx), alpha)
        mismatches += sums != [den * v for v in values]
    return mismatches


def _check_monomials(ctx):
    return squarefree_monomials(ctx, ctx.k + 1) + sample_monomials(ctx)


@pytest.mark.parametrize("n", range(1, 8))
def test_packed_mismatches_match_reference(n):
    for k in range(n // 2 + 1):
        ctx = SpringerContext(n, k)
        x1_40_x2 = (40,) + tuple(int(i == 1) for i in range(1, n)) + (0,)
        t9 = (0,) * n + (9,)
        monomials = _check_monomials(ctx) + [x1_40_x2, t9]
        assert springer.straightening_mismatches(ctx, monomials) == 0
        assert _reference_mismatches(ctx, monomials) == 0


def test_packed_slot_width_grows_with_the_values(monkeypatch):
    # 6^60 needs 156 bits, so x1^60 at (6,3) needs slots past 128 bits,
    # which the check's own monomials never do
    sizes = []
    original = springer._pack

    def recorded(values, size):
        sizes.append(size)
        return original(values, size)

    monkeypatch.setattr(springer, "_pack", recorded)
    ctx = SpringerContext(6, 3)
    assert springer.straightening_mismatches(ctx, _check_monomials(ctx)) == 0
    assert 8 * max(sizes) <= 128
    x1_60 = (60, 0, 0, 0, 0, 0, 0)
    _, den = springer._straighten_x_monomial(ctx, x1_60[:6])
    needed = (den * 6**60).bit_length()
    assert needed > 128
    sizes.clear()
    assert springer.straightening_mismatches(ctx, [x1_60]) == 0
    assert _reference_mismatches(ctx, [x1_60]) == 0
    assert min(sizes) * 8 >= needed + 2


def test_packed_check_counts_one_tampered_entry():
    # +1 on one numerator of one memo entry: exactly its monomial fails,
    # and the reference agrees
    ctx = SpringerContext(5, 2)
    monomials = squarefree_monomials(ctx, 3)
    assert springer.straightening_mismatches(ctx, monomials) == 0
    alpha = next(m[:5] for m in monomials if sum(m) == 3)
    memo = springer._rewrite_memo(ctx)
    (b, a), *rest = memo[alpha][0]
    memo[alpha] = (((b, a + 1), *rest), memo[alpha][1])
    assert springer.straightening_mismatches(ctx, monomials) == 1
    assert _reference_mismatches(ctx, monomials) == 1


def test_packed_check_compares_each_x_part_once(monkeypatch):
    # with the square rule wrong, x1^2 at (3,1) mismatches: given at t^0
    # and t^2 it counts two mismatches, as the reference does, from one
    # packed comparison of its values
    monkeypatch.setattr(springer, "_square_rules", _t_squared_plus_one(springer._square_rules))
    ctx = SpringerContext(3, 1)
    basis_image_matrix(ctx)  # evaluates the basis monomials
    compared = []
    original = springer._monomial_values

    def recorded(columns, alpha):
        compared.append(alpha)
        return original(columns, alpha)

    monkeypatch.setattr(springer, "_monomial_values", recorded)
    monomials = [(2, 0, 0, 0), (2, 0, 0, 2)]
    assert springer.straightening_mismatches(ctx, monomials) == 2
    assert compared == [(2, 0, 0)]
    assert _reference_mismatches(ctx, monomials) == 2


def test_packed_check_counts_each_monomial_of_a_wrong_x_part():
    # a wrong coordinate for x1, given at t^0, t^1 and t^2, counts three
    # mismatches from one straightening and one comparison of x1
    ctx = SpringerContext(3, 1)
    x1 = (1, 0, 0)
    memo = springer._rewrite_memo(ctx)
    memo[x1] = (((0b10, 1),), 1)  # x1 = x2, which localizes otherwise
    straightened = []
    original = springer._straighten_x_monomial

    def recorded(ctx, alpha):
        straightened.append(alpha)
        return original(ctx, alpha)

    monomials = [x1 + (0,), x1 + (1,), x1 + (2,)]
    springer.straightening_mismatches(ctx, [])  # builds the basis matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(springer, "_straighten_x_monomial", recorded)
        assert springer.straightening_mismatches(ctx, monomials) == 3
    assert straightened == [x1]
    assert _reference_mismatches(ctx, monomials) == 3


def test_packed_check_bounds_keys_by_the_lowest_degree_of_an_x_part(monkeypatch):
    # x1 given the two-bit key x2 x4 passes at x1 t (degree 2) but needs
    # t^-1 at x1 (degree 1): the check refuses it even when x1 t comes first
    original = springer._straighten_x_monomial

    def overlong(ctx, alpha):
        return (((0b1010, 1),), 1) if alpha == (1, 0, 0, 0) else original(ctx, alpha)

    monkeypatch.setattr(springer, "_straighten_x_monomial", overlong)
    ctx = SpringerContext(4, 2)
    assert springer.straightening_mismatches(ctx, [(1, 0, 0, 0, 1), (1, 0, 0, 0, 3)]) == 2
    for monomials in ([(1, 0, 0, 0, 1), (1, 0, 0, 0, 0)], [(1, 0, 0, 0, 0), (1, 0, 0, 0, 2)]):
        with pytest.raises(ConsistencyError, match="non-polynomial"):
            springer.straightening_mismatches(ctx, monomials)


_keys = st.integers(min_value=0, max_value=15)
_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def _combine_entries(draw, integral):
    # entries ((numerators, D), c), each entry's keys distinct and its
    # numerators nonzero, as the memo holds them
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        numerators = draw(st.dictionaries(_keys, _ints.filter(bool), max_size=6))
        den = 1 if integral else draw(st.integers(min_value=1, max_value=6))
        if integral:
            c = draw(_ints)
        else:
            c = draw(st.one_of(_ints, st.fractions(min_value=-9, max_value=9, max_denominator=6)))
        entries.append(((tuple(numerators.items()), den), c))
    return entries


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(_combine_entries(integral=True), _combine_entries(integral=False)),
    st.integers(min_value=1, max_value=6),
)
def test_combine_matches_a_fraction_reference(entries, divisor):
    # integral entries with int coefficients take the short path at divisor
    # 1; every other input the general one; both give the Fraction sum in
    # lowest terms over a positive denominator, zeros dropped
    reference: dict[int, Fraction] = {}
    for (numerators, den), c in entries:
        for q, a in numerators:
            reference[q] = reference.get(q, 0) + Fraction(c) * Fraction(a, den) / divisor
    numerators, den = springer._combine(entries, divisor)
    assert den > 0 and all(a for _, a in numerators)
    assert gcd(den, *(a for _, a in numerators)) == 1
    assert {q: Fraction(a, den) for q, a in numerators} == {q: v for q, v in reference.items() if v}
    assert len({q for q, _ in numerators}) == len(numerators)


def test_fillings_are_freed_with_their_context():
    # the lift's fillings live on the context: x1 at (1000,1) lifts onto
    # 1,000 tableaux, whose fillings of 1,000 entries none outlives it
    tracemalloc.start()
    try:
        ctx = SpringerContext(1000, 1)
        assert len(straighten_by_rewrite(ctx.x(1), ctx)) == 1000
        assert len(springer._bottom_row_fillings(ctx)) >= 1000
        del ctx
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_paper_straightening_builds_no_basis():
    # the lift stores the fillings of the keys it returns, one at a time:
    # x1 at (40,20) lifts onto its 40 keys, none of the C(40,20) basis
    ctx = SpringerContext(40, 20)
    assert len(straighten_by_rewrite(ctx.x(1), ctx)) == 40
    built = {fn.__name__ for fn in ctx.cache}
    assert not built & {"standard_monomial_basis", "fixed_points", "basis_image_matrix"}


def test_rewrite_memo_is_thread_safe(monkeypatch):
    # threads racing on a fresh context get the memo, the basis matrix and
    # the solve's inverse stored first, and sharing the memo they neither
    # see one another's half-finished entries as cycles nor get other
    # answers or entries; every solve of every thread uses the stored
    # inverse, counted through the name springer calls.  At (6, 3) the
    # 20 x 20 inverse takes long enough for the threads to overlap.
    reference = SpringerContext(6, 3)
    polys = [MPoly.from_monomial(m) for m in sample_monomials(reference, 30, 6)]
    solved_with = {}

    def recorded(inverse, rhs):
        solved_with.setdefault(threading.get_ident(), []).append(inverse)
        return solve_rational(inverse, rhs)

    monkeypatch.setattr(springer, "solve_rational", recorded)

    def straighten_all(ctx):
        return [(straighten_by_rewrite(p, ctx), straighten_by_solve(p, ctx)) for p in polys]

    expected = straighten_all(reference)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            ctx = SpringerContext(6, 3)
            start = threading.Barrier(4)
            shared, results, errors, used = [], [], [], []

            def work():
                start.wait(timeout=10)
                try:
                    shared.append((basis_image_matrix(ctx), springer._rewrite_memo(ctx)))
                    results.append(straighten_all(ctx))
                    used.append(solved_with.pop(threading.get_ident()))
                except ConsistencyError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert results == [expected] * 4
            stored = basis_image_matrix(ctx), springer._rewrite_memo(ctx)
            assert len(shared) == 4 and all(a is b for got in shared for a, b in zip(got, stored))
            assert stored[1] == springer._rewrite_memo(reference)
            inverse = springer._core_inverse(ctx)[0]
            assert len(used) == 4 and all(got is inverse for solves in used for got in solves)
    finally:
        sys.setswitchinterval(interval)


def _sample_monomials_by_randint(ctx, count, max_degree):
    """sample_monomials as written with randint and randrange."""
    rng = random.Random(f"{springer.SAMPLE_SEED}:{ctx.n}:{ctx.k}")
    out = []
    for _ in range(count):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(ctx.nvars)] += 1
        out.append(tuple(mono))
    return out


# the default, every (count, max_degree) the tests pass, and the one- and
# two-value degree ranges, whose draws reject most often
@pytest.mark.parametrize("count, max_degree", [(50, 5), (40, 6), (60, 7), (30, 6), (20, 0), (20, 1)])
def test_sampled_monomials_are_the_randint_draws(count, max_degree):
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            expected = _sample_monomials_by_randint(ctx, count, max_degree)
            assert sample_monomials(ctx, count, max_degree) == expected


def test_sampled_monomials_are_deterministic():
    ctx = SpringerContext(3, 1)
    first = sample_monomials(ctx)
    second = sample_monomials(ctx)
    assert first == second
    assert len(first) == 50
    assert all(sum(m) <= 5 for m in first)
    assert squarefree_monomials(ctx, 2)[0] == (0, 0, 0, 0)


# -- kernel versus ideal ------------------------------------------------------


def _kernel_slice_dims(ctx, max_degree):
    """Dimensions of the degree-d slices of the localization kernel for
    d = 0..max_degree: C(d + n, n) minus the rank of the value vectors at
    the fixed points of the x-monomials of degree at most d (a monomial's
    value vector is integral and independent of its t-power).  This was
    the certificate's kernel side before the tableau basis replaced it;
    it shares no code with the certificate and is kept as its cross-check."""
    points = fixed_points(ctx)
    rref = SparseExactRREF()
    dims = []
    for d in range(max_degree + 1):
        # one row per x-monomial of degree d, a multiset of indices
        for factors in combinations_with_replacement(range(ctx.n), d):
            rref.add_row(
                {idx: prod(w.w[i] for i in factors) for idx, w in enumerate(points)}
            )
        dims.append(comb(d + ctx.n, ctx.n) - rref.rank)
    return dims


def _ideal_slice_dims(ctx, max_degree):
    """Dimensions of the degree-d slices of I for d = 0..max_degree, by
    exact row reduction: the slice in degree d is spanned by the variable
    multiples of a basis of the slice in degree d - 1 together with the
    generators of degree d.  This bounded route shares no code
    with the certificate and is kept as its cross-check."""
    gens_by_degree = {}
    for g in equivariant_ideal(ctx).generators:
        gens_by_degree.setdefault(g.total_degree(), []).append(g)
    units = [tuple(int(i == v) for i in range(ctx.nvars)) for v in range(ctx.nvars)]
    dims, previous_rows = [], []
    for d in range(max_degree + 1):
        rref = SparseExactRREF()
        candidates = [
            {monomial_mul(m, unit): c for m, c in row.items()}
            for row in previous_rows
            for unit in units
        ]
        candidates += [dict(g.terms) for g in gens_by_degree.get(d, [])]
        # the rows that raised the rank span the slice
        previous_rows = [row for row in candidates if rref.add_row(row)]
        dims.append(rref.rank)
    return dims


def _free_module_slice_dims(ctx, max_degree):
    """What a free Q[t]-module on the x_T gives for the degree-d slices of
    I: C(d + n, n) minus #{T : ell(T) <= d}, read off the certificate's
    graded counts."""
    counts = kernel_ideal_comparisons(ctx).graded_counts
    return [
        comb(d + ctx.n, ctx.n) - sum(counts[: d + 1]) for d in range(max_degree + 1)
    ]


def test_degree_zero_trivial():
    # only the empty tableau lives in degree 0, and constants localize
    # injectively
    ctx = SpringerContext(3, 1)
    assert kernel_ideal_comparisons(ctx).graded_counts[0] == 1
    assert _kernel_slice_dims(ctx, 0) == _ideal_slice_dims(ctx, 0) == [0]


def test_degree_one_n2():
    # x1, x2, t against the basis 1*t and x2: the linear relation spans
    # the kernel
    ctx = SpringerContext(2, 1)
    assert kernel_ideal_comparisons(ctx).graded_counts == (1, 1)
    assert _kernel_slice_dims(ctx, 1) == _ideal_slice_dims(ctx, 1) == [0, 1]


def test_kernel_matches_ideal_n4():
    check = kernel_ideal_comparisons(SpringerContext(4, 2))
    assert check.ok and check.generators_vanish and check.specializes_to_j
    assert check.tableau_standard and check.points_distinct
    assert check.quotient_dimension == 6
    assert check.graded_counts == check.expected_counts == (1, 3, 2)


def test_kernel_dims_match_free_module_structure():
    # once every basis tableau fits in the degree, the quotient slice has
    # dimension C(n, k); below that only bottoms of size <= d contribute
    ctx = SpringerContext(4, 2)
    expected = [comb(d + 4, 4) - q for d, q in enumerate([1, 4, 6, 6, 6])]
    assert _free_module_slice_dims(ctx, 4) == expected
    assert _kernel_slice_dims(ctx, 4) == expected
    assert _ideal_slice_dims(ctx, 4) == expected


def test_kernel_slices_match_the_certificate():
    # the localization rank in degree d is #{T : ell(T) <= d}
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            assert kernel_ideal_comparisons(ctx).ok, (n, k)
            assert _kernel_slice_dims(ctx, k + 1) == _free_module_slice_dims(
                ctx, k + 1
            ), (n, k)


def test_ideal_slices_match_the_certificate():
    for n in range(1, 6):
        for k in range(n // 2 + 1):
            ctx = SpringerContext(n, k)
            bound = 2 * (k + 1)
            assert _ideal_slice_dims(ctx, bound) == _free_module_slice_dims(
                ctx, bound
            ), (n, k)


def ideal_basis(ctx, name):
    """The reduced grevlex Groebner basis of the named presentation ideal,
    by Buchberger on its whole generator list: the cross-check of the
    certificates, which compute no Groebner basis."""
    return buchberger(ideal_by_name(ctx, name).generators)


def test_basis_of_i_specializes_to_the_basis_of_j():
    # the Groebner route the certificate replaced, kept as its cross-check:
    # no leading monomial of I's reduced grevlex basis involves t (so t is
    # regular on Q[x,t]/I, by Bayer-Stillman), and setting t = 0 in that
    # basis gives J's reduced basis, generator for generator
    contexts = [SpringerContext(n, k) for n in range(1, 9) for k in range(n // 2 + 1)]
    for ctx in [*contexts, SpringerContext(10, 5)]:
        basis = ideal_basis(ctx, "I")
        assert not any(lm[ctx.n] for lm in basis.leading_monomials()), ctx
        specialized = [_at_t_zero(g) for g in basis.generators]
        assert specialized == list(ideal_basis(ctx, "J").generators), ctx


@pytest.mark.parametrize("n", range(1, 9))
def test_j0_gives_the_standard_monomials_of_j(n):
    # the Groebner cross-check of step 3: J = J0 + m^(k+1), and the
    # standard monomials of Buchberger's basis on J's whole list are
    # exactly the tableau monomials, at every k
    for k in range(n // 2 + 1):
        ctx = SpringerContext(n, k)
        _, of_j = quotient_dimension(ideal_basis(ctx, "J"))
        tableaux = {monomial_from_filling(tab)[:n] for tab in standard_monomial_basis(ctx)}
        assert len(of_j) == len(tableaux) and set(of_j) == tableaux, k
        assert kernel_ideal_comparisons(ctx).quotient_dimension == len(of_j), k


@pytest.mark.parametrize("n", range(1, 13))
def test_j0_counts_c_n_k_at_the_largest_k(n):
    # the paper's rule at t = 0 leaves C(n,d) - C(n,d-1) standard
    # d-subsets spanning (Q[x]/J0)_d, the lower bound, in every degree
    # d <= n/2; so dim Q[x]/J = C(n, k) at the largest k
    ctx = SpringerContext(n, n // 2)
    counts = springer._rule_span_counts(ctx)
    assert counts == tuple(comb(n, d) - (d and comb(n, d - 1)) for d in range(n // 2 + 1))
    assert ordinary_presentation_check(ctx).dimension == sum(counts) == comb(n, n // 2)


def test_witness_scans_only_the_degrees_up_to_k(monkeypatch):
    # the witness is kept per context and covers d = 0..k, the degrees
    # its two callers read: at (16, 1) it scans 1-subsets, not every
    # d-subset up to d = 8
    scanned = []
    original = springer._rule_at_zero

    def spied(mask, j, n, order):
        scanned.append(mask)
        return original(mask, j, n, order)

    monkeypatch.setattr(springer, "_rule_at_zero", spied)
    assert ordinary_presentation_check(SpringerContext(16, 1)).ok
    assert scanned and max(mask.bit_count() for mask in scanned) == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_ballot_scan_finds_the_first_bad_column(n):
    # the witness's standardness test, on bit masks, agrees with the
    # tableau module's on every d-subset, d <= n/2; a bad column is one
    # whose top entry exceeds its bottom one
    for d in range(n // 2 + 1):
        for bottom in combinations(range(1, n + 1), d):
            filling = filling_from_monomial([int(p in bottom) for p in range(1, n + 1)], n)
            bad = [c for c in range(d) if filling.top[c] > filling.bottom[c]]
            mask = sum(1 << (b - 1) for b in bottom)
            assert springer._first_bad_column(mask, n) == (bad[0] + 1 if bad else 0)
            assert (not bad) == is_standard(filling)


def _shift_rule_column(shift, keep_well_formed):
    """A patch making the spanning witness apply the paper's rule at t = 0
    in column j + shift instead of the first bad column j; with
    keep_well_formed, only where 1 <= j + shift <= |S|, so that the
    relation still lies in J0 and only the triangular order can fail."""

    def patch(monkeypatch):
        original = springer._rule_at_zero

        def shifted(mask, j, n, order):
            moved = j + shift
            if keep_well_formed and not 1 <= moved <= mask.bit_count():
                moved = j
            return original(mask, moved, n, order)

        monkeypatch.setattr(springer, "_rule_at_zero", shifted)

    return patch


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("keep_well_formed", [False, True], ids=["any", "well-formed"])
def test_step_3_fails_for_a_rule_off_by_one_column(shift, keep_well_formed, monkeypatch, capsys):
    # the witness must reduce each non-standard subset at its first bad
    # column; one column early or late, it no longer proves spanning:
    # step 3 fails alone and by name, and ordinary reports no dimension
    ctx = SpringerContext(6, 3)
    _shift_rule_column(shift, keep_well_formed)(monkeypatch)
    check = kernel_ideal_comparisons(ctx)
    assert {step for step in STEPS if not getattr(check, step)} == {"tableau_standard"}
    assert check.quotient_dimension is None
    assert ordinary_presentation_check(ctx).dimension is None
    failed_degree = 2 if keep_well_formed else 1
    assert check.span_counts[failed_degree] is None
    assert main(["verify", "--checks", "kernel-ideal,ordinary", "--n-max", "6",
                 "--k", "max"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL kernel-ideal[n=6,k=3]: {STEPS['tableau_standard']}: the paper's rule at " \
        f"t = 0 fails in degree {failed_degree} [" in out
    assert "FAIL ordinary[n=6,k=3]: dim None (expected 20)" in out


def _longer_head(split):
    """A split like ``split`` whose head takes one more top entry."""

    def longer(mask, j, n):
        head, tail = split(mask, j, n)
        top = ~(mask | head) & ((1 << n) - 1)
        return head | (top & -top), tail

    return longer


def test_step_3_fails_for_a_split_whose_head_is_one_entry_longer(monkeypatch, capsys):
    # the rewrite step and the witness share one split.  Any split of the
    # linear relation gives a relation in I, so the rewrite stays right;
    # but with j top entries in head, (-head)^j no longer vanishes modulo
    # the squares, the witness's premise fails and step 3 fails by name
    ctx = SpringerContext(6, 3)
    monkeypatch.setattr(springer, "_rule_split", _longer_head(springer._rule_split))
    check = kernel_ideal_comparisons(ctx)
    assert {step for step in STEPS if not getattr(check, step)} == {"tableau_standard"}
    assert main(["verify", "--checks", "kernel-ideal,straighten", "--n-max", "6",
                 "--k", "max"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL kernel-ideal[n=6,k=3]: {STEPS['tableau_standard']}: the paper's rule at " \
        "t = 0 fails in degree 1 [" in out
    assert "PASS straighten[n=6,k=3]:" in out


def _change_j_list(change):
    """A patch making springer.ordinary_ideal return, at the patched
    context only, the list change(generators, labels)."""

    def patch(monkeypatch, ctx):
        original = springer.ordinary_ideal

        def changed(c):
            ideal = original(c)
            if c != ctx:
                return ideal
            generators, labels = change(list(ideal.generators), list(ideal.labels))
            return ideal._replace(generators=tuple(generators), labels=tuple(labels))

        monkeypatch.setattr(springer, "ordinary_ideal", changed)

    return patch


def _without_last(generators, labels):
    return generators[:-1], labels[:-1]


def _last_plus_x1_squared(generators, labels):
    x1_squared = MPoly.from_monomial(tuple(2 * (p == 0) for p in range(generators[0].nvars)))
    return [*generators[:-1], generators[-1] + x1_squared], labels


def _extra_square(generators, labels):
    return [*generators, generators[1]], [*labels, labels[1]]


@pytest.mark.parametrize("n, k", [(4, 1), (5, 2)])
@pytest.mark.parametrize(
    "change", [_without_last, _last_plus_x1_squared, _extra_square],
    ids=["drop-product", "alter-product", "extra-square"],
)
def test_step_3_needs_j0_and_every_product(n, k, change, monkeypatch, capsys):
    # J's list must be J0's followed by every squarefree (k+1)-product.
    # Step 2 reads the same list, so it is held true here, and step 3
    # fails alone; ordinary then reports no dimension either
    ctx = SpringerContext(n, k)
    _change_j_list(change)(monkeypatch, ctx)
    monkeypatch.setattr(springer, "_specializes_to_j", lambda c: True)
    check = kernel_ideal_comparisons(ctx)
    assert {step for step in STEPS if not getattr(check, step)} == {"tableau_standard"}
    assert check.quotient_dimension is None
    assert ordinary_presentation_check(ctx).dimension is None
    assert main(["verify", "--checks", "kernel-ideal", "--n-max", str(n), "--k", "all"]) == 1
    fail_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith(
        f"FAIL kernel-ideal[n={n},k={k}]: {STEPS['tableau_standard']}: J's list is not "
        "e1, the squares and the products"
    )


def _drop(builders, dropped):
    """A patch making each springer.<builder> return, at the patched
    context only, its list without the generators (for _generator_forms,
    the forms) whose labels satisfy dropped(label)."""

    def patch(monkeypatch, ctx):
        for builder in builders:
            original = getattr(springer, builder)

            def weakened(c, original=original):
                ideal = original(c)
                if c != ctx:
                    return ideal
                if isinstance(ideal, list):  # _generator_forms: (label, forms) pairs
                    kept = [pair for pair in ideal if not dropped(pair[0])]
                    assert len(kept) < len(ideal)
                    return kept
                kept = [i for i, label in enumerate(ideal.labels) if not dropped(label)]
                assert len(kept) < len(ideal.labels)
                return ideal._replace(
                    generators=tuple(ideal.generators[i] for i in kept),
                    labels=tuple(ideal.labels[i] for i in kept),
                )

            monkeypatch.setattr(springer, builder, weakened)

    return patch


def _repeat_second_fixed_point(monkeypatch, ctx):
    original = springer.fixed_points

    def repeated(c):
        points = original(c)
        return (points[1], *points[1:]) if c == ctx else points

    monkeypatch.setattr(springer, "fixed_points", repeated)


# the certificate's steps, as KernelIdealCheck fields and as named in the
# kernel-ideal check's details
STEPS = {
    "generators_vanish": "step 1 (vanishing)",
    "specializes_to_j": "step 2 (I + (t) = J + (t))",
    "tableau_standard": "step 3 (spanning)",
    "points_distinct": "step 4 (distinct points)",
}


@pytest.mark.parametrize(
    "n, k, patch, failed, also",
    [
        # without a linear or quadratic relation, I's generators at t = 0
        # are no longer J's.  (Dropping "product i=1,2,3" from I at (4,2)
        # would leave the same ideal and prove nothing.)
        (4, 2, _drop(["_generator_forms"], lambda label: label == "quadratic i=4"),
         "specializes_to_j", set()),
        (4, 2, _drop(["_generator_forms"], lambda label: label == "quadratic i=1"),
         "specializes_to_j", set()),
        (4, 2, _drop(["_generator_forms"], lambda label: label == "linear"),
         "specializes_to_j", set()),
        # a shifted t coefficient keeps the image at t = 0, so only step 1
        # sees it
        (4, 2, _shift_quadratic_4_t, "generators_vanish", set()),
        # modulo e1 and the squares x1 x2 = -(x1 x3 + x1 x4), so J keeps its
        # ideal without this product: only the list certificates fail, step
        # 2's against I's images and step 3's against J0 and the products,
        # and the detail names step 2
        (4, 1, _drop(["ordinary_ideal"], lambda label: label == "product i=1,2"),
         "specializes_to_j", {"tableau_standard"}),
        # with every product dropped from both lists step 2 holds, but
        # J = (e1, squares) is not J0 + m^2: J's list lacks the products
        (4, 1, _drop(["_generator_forms", "ordinary_ideal"],
                     lambda label: label.startswith("product")),
         "tableau_standard", set()),
        # I vanishes at every listed point, but only five are distinct
        (4, 2, _repeat_second_fixed_point, "points_distinct", set()),
    ],
    ids=["drop-quadratic-4", "drop-quadratic-1", "drop-linear", "nonvanishing-generator",
         "drop-j-product", "drop-all-products", "repeated-fixed-point"],
)
def test_certificate_fails_closed(n, k, patch, failed, also, monkeypatch, capsys):
    ctx = SpringerContext(n, k)
    patch(monkeypatch, ctx)
    check = kernel_ideal_comparisons(ctx)
    assert {step for step in STEPS if not getattr(check, step)} == {failed} | also
    assert main(["verify", "--checks", "kernel-ideal", "--n-max", str(n)]) == 1
    out = capsys.readouterr().out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith(f"FAIL kernel-ideal[n={n},k={k}]: {STEPS[failed]}")


def test_verify_never_expands_i(monkeypatch, capsys):
    # every certificate reads I's factors; only the generators listing
    # multiplies them out, which also shows that the spy is in place
    calls = []
    original = springer.equivariant_ideal

    def spied(ctx):
        calls.append(ctx)
        return original(ctx)

    monkeypatch.setattr(springer, "equivariant_ideal", spied)
    assert main(["verify", "--n-max", "5", "--k", "all"]) == 0
    assert calls == []
    assert main(["generators", "--ideal", "I", "--n", "4", "--k", "2"]) == 0
    assert calls == [SpringerContext(4, 2)]
    capsys.readouterr()


# -- ordinary cohomology ------------------------------------------------------


def test_ordinary_check_examples():
    report = ordinary_presentation_check(SpringerContext(3, 1))
    assert report.dimension == 3 and report.ok
    report = ordinary_presentation_check(SpringerContext(4, 2))
    assert report.dimension == 6 and report.ok
    report = ordinary_presentation_check(SpringerContext(5, 0))
    assert report.dimension == 1 and report.ok


def test_ordinary_ideals_are_cached_per_context():
    # J, which several checks read, once per context object; an equal but
    # distinct context builds its own.  No check reads I's or Tanisaki's
    # list twice in a context, so they are built afresh per call and
    # leave the context's cache as it was
    ctx, twin = SpringerContext(5, 2), SpringerContext(5, 2)
    build = ordinary_ideal
    assert build(ctx) is build(ctx) and build(twin) is build(twin)
    assert build(ctx) == build(twin) and build(ctx) is not build(twin)
    for build in (tanisaki_ideal, equivariant_ideal):
        cached = dict(ctx.cache)
        assert build(ctx) == build(ctx) and build(ctx) is not build(ctx)
        assert ctx.cache == cached


def _patch_generator(monkeypatch, ctx, builder, label, change):
    """Make springer.<builder> return, at ctx only, its list with the
    generator of this label replaced by change(generator)."""
    original = getattr(springer, builder)

    def patched(c):
        ideal = original(c)
        if c != ctx:
            return ideal
        gens = list(ideal.generators)
        i = ideal.labels.index(label)
        gens[i] = change(gens[i])
        return ideal._replace(generators=tuple(gens))

    monkeypatch.setattr(springer, builder, patched)


def _plus_x3_x4(g):
    return g + MPoly.from_monomial(tuple(int(p in (2, 3)) for p in range(g.nvars)))


def _x3_into_quadratic_4(monkeypatch, ctx):
    # x4 + x3 - 6t becomes x4 + 2 x3 - 6t: at t = 0 the generator gains
    # x3 x4 - x3^2
    def widened(forms):
        plus, minus = forms
        return [{**plus, 2: plus[2] + 1}, minus]

    _patch_forms(monkeypatch, ctx, "quadratic i=4", widened)


@pytest.mark.parametrize(
    "patch, failed",
    [
        (_x3_into_quadratic_4, {"specialization_equal"}),
        (partial(_patch_generator, builder="ordinary_ideal", label="square i=4",
                 change=_plus_x3_x4), {"specialization_equal", "tanisaki_equal"}),
        (partial(_patch_generator, builder="tanisaki_ideal", label="e2 i=1,2,3",
                 change=_plus_x3_x4), {"tanisaki_equal"}),
        (partial(_patch_generator, builder="tanisaki_ideal", label="e2 i=2,3,4",
                 change=_plus_x3_x4), {"tanisaki_equal"}),
    ],
    ids=["I", "J", "tanisaki-omit-4", "tanisaki-omit-1"],
)
def test_ordinary_certificates_fail_closed(patch, failed, monkeypatch, capsys):
    # one generator of one list changes at (4,2): J's or Tanisaki's gains
    # the term x3 x4, I's a factor's x3 coefficient; the Groebner
    # comparison first confirms which equalities of ideals this breaks
    ctx = SpringerContext(4, 2)
    patch(monkeypatch, ctx)
    j_gens = list(springer.ordinary_ideal(ctx).generators)
    others = {
        "specialization_equal": [
            _at_t_zero(_expand(ctx, forms)) for _, forms in springer._generator_forms(ctx)
        ],
        "tanisaki_equal": list(springer.tanisaki_ideal(ctx).generators),
    }
    assert {name for name, gens in others.items() if not ideal_equal(j_gens, gens).equal} == failed
    check = ordinary_presentation_check(ctx)
    assert {name for name in others if not getattr(check, name)} == failed
    assert main(["verify", "--checks", "ordinary", "--n-max", "4", "--k", "max"]) == 1
    out = capsys.readouterr().out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith("FAIL ordinary[n=4,k=2]: ")


def test_ordinary_certificates_fail_closed_on_a_non_integral_e1(monkeypatch, capsys):
    # J's linear generator and Tanisaki's e1 both halved at (4,2): the
    # ideals are unchanged, as the Groebner comparison confirms, but the
    # certificates read the lists, whose e1 has no integer form; the check
    # fails on its own line, with no exception and nothing truncated
    ctx = SpringerContext(4, 2)
    for builder, label in (("ordinary_ideal", "linear"), ("tanisaki_ideal", "e1")):
        _patch_generator(monkeypatch, ctx, builder, label, lambda g: g * Fraction(1, 2))
    j_gens = list(springer.ordinary_ideal(ctx).generators)
    tanisaki = list(springer.tanisaki_ideal(ctx).generators)
    assert j_gens[0] == tanisaki[0] and set(j_gens[0].terms.values()) == {Fraction(1, 2)}
    assert ideal_equal(j_gens, tanisaki).equal
    assert not ordinary_presentation_check(ctx).tanisaki_equal
    assert main(["verify", "--checks", "ordinary", "--n-max", "4", "--k", "max"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err and captured.err == ""
    fail_lines = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith("FAIL ordinary[n=4,k=2]: ")
    assert "consistency error" not in fail_lines[0]


def test_ordinary_n2_needs_e2_in_tanisaki(monkeypatch):
    # at n = 2 the e2(omit i) are 0 and x_i^2 = x_i e1 - x1 x2 holds for any
    # product generator, so only the case "x1 x2 is a multiple of a
    # product generator" ties e2(all) to Tanisaki's ideal.  With the shared
    # product x1 x2 replaced by x1^3 in both lists, it is not, and the
    # ideals differ
    ctx = SpringerContext(2, 1)
    x1_cubed = MPoly.from_monomial((3, 0))
    for builder, label in (("ordinary_ideal", "product i=1,2"), ("tanisaki_ideal", "e2 i=1,2")):
        _patch_generator(monkeypatch, ctx, builder, label, lambda g: x1_cubed)
    j_gens = list(springer.ordinary_ideal(ctx).generators)
    tanisaki = list(springer.tanisaki_ideal(ctx).generators)
    assert j_gens[-1] == tanisaki[-1] == x1_cubed
    assert not ideal_equal(j_gens, tanisaki).equal
    assert not ordinary_presentation_check(ctx).tanisaki_equal
