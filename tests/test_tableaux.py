from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from tworow.tableaux import (
    Partition,
    TwoRowFilling,
    binomial_hook_identity,
    enumerate_standard_tableaux,
    filling_from_monomial,
    hook_count,
    hook_length,
    is_permissible,
    is_standard,
    monomial_from_filling,
    two_row_shape,
)


def test_partition_validation():
    Partition((4, 3, 2, 1, 1))
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition((2, 3)), "partition parts must be weakly decreasing"),
        (lambda: Partition((2, 0)), "partition parts must be positive integers"),
        (lambda: Partition([2, 1.5]), "partition parts must be positive integers"),
        (lambda: TwoRowFilling(top=(1, 2), bottom=(3, 4, 5)), "bottom row longer than top row"),
        (lambda: TwoRowFilling(top=(1, 1, 3), bottom=(2,)), "filling must use 1..4 exactly once"),
        (lambda: TwoRowFilling((1, 5), (2,)), "filling must use 1..3 exactly once"),
    ],
)
def test_validation_texts(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_records_coerce_their_rows_to_tuples():
    assert Partition([3, 1]).parts == (3, 1)
    assert Partition(iter([2, 2])) == Partition((2, 2)) == ((2, 2),)
    filling = TwoRowFilling([1, 3, 4], iter([2]))
    assert (filling.top, filling.bottom) == ((1, 3, 4), (2,))
    assert filling == TwoRowFilling(top=(1, 3, 4), bottom=(2,))
    assert repr(filling) == "TwoRowFilling(top=(1, 3, 4), bottom=(2,))"


def test_predicate_examples():
    good = TwoRowFilling(top=(1, 3, 4), bottom=(2,))
    assert is_permissible(good) and is_standard(good)
    shifted = TwoRowFilling(top=(2, 3, 4), bottom=(1,))
    assert is_permissible(shifted) and not is_standard(shifted)
    jumbled = TwoRowFilling(top=(1, 4, 3), bottom=(2,))
    assert not is_permissible(jumbled)
    assert not is_standard(jumbled)


def test_malformed_fillings_rejected():
    with pytest.raises(ValueError):
        TwoRowFilling(top=(1, 1, 3), bottom=(2,))
    with pytest.raises(ValueError):
        TwoRowFilling(top=(1, 2), bottom=(3, 4, 5))
    with pytest.raises(ValueError):
        TwoRowFilling(top=(1, 5), bottom=(2,))


def test_enumeration_examples():
    only = enumerate_standard_tableaux(4, 0)
    assert only == [TwoRowFilling(top=(1, 2, 3, 4), bottom=())]
    two = enumerate_standard_tableaux(4, 2)
    assert [f.bottom for f in two] == [(2, 4), (3, 4)]
    three = enumerate_standard_tableaux(4, 1)
    assert [f.bottom for f in three] == [(2,), (3,), (4,)]
    with pytest.raises(ValueError):
        enumerate_standard_tableaux(3, 2)


def test_hook_length_example():
    shape = Partition((4, 3, 2, 1, 1))
    assert hook_length(shape, 2, 1) == 6
    with pytest.raises(ValueError):
        hook_length(shape, 2, 4)
    with pytest.raises(ValueError):
        hook_length(shape, 6, 1)


def test_hook_count_examples():
    assert hook_count(Partition((5,))) == 1
    assert hook_count(Partition((2, 2))) == 2
    assert hook_count(Partition((2, 2))) == len(enumerate_standard_tableaux(4, 2))


def test_two_row_count_closed_form():
    # n! (n - 2k + 1) / ((n - k + 1)! k!) counts two-row standard tableaux
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            closed = factorial(n) * (n - 2 * k + 1) // (factorial(n - k + 1) * factorial(k))
            assert hook_count(two_row_shape(n, k)) == closed


@given(st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_agrees_with_hooks(n, data):
    ell = data.draw(st.integers(0, n // 2))
    assert len(enumerate_standard_tableaux(n, ell)) == hook_count(two_row_shape(n, ell))


def test_hook_count_integral_for_small_partitions():
    def partitions(total, largest=None):
        if total == 0:
            yield ()
            return
        largest = largest or total
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in range(1, 11):
        for parts in partitions(n):
            assert hook_count(Partition(parts)) >= 1


def test_binomial_identity():
    binomial, total, equal = binomial_hook_identity(4, 2)
    assert (binomial, total, equal) == (6, 6, True)
    assert binomial_hook_identity(7, 0) == (1, 1, True)
    assert binomial_hook_identity(12, 6)[2]
    with pytest.raises(ValueError):
        binomial_hook_identity(5, 3)


def test_binomial_identity_exhaustive():
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            binomial, total, equal = binomial_hook_identity(n, k)
            assert equal and binomial == comb(n, k)


def test_monomial_round_trip():
    filling = filling_from_monomial((0, 1, 0, 0, 0), 4)
    assert filling.bottom == (2,) and filling.top == (1, 3, 4)
    mono = monomial_from_filling(filling)
    assert mono == (0, 1, 0, 0, 0)

    pair = filling_from_monomial((0, 0, 1, 1, 0), 4)
    assert pair.bottom == (3, 4) and pair.top == (1, 2)
    assert is_standard(pair)

    empty = filling_from_monomial((0, 0, 0, 0, 0), 4)
    assert empty.bottom == () and empty.ell == 0


def test_filling_from_monomial_rejections():
    with pytest.raises(ValueError):
        filling_from_monomial((2, 0, 0, 0, 0), 4)  # not squarefree
    with pytest.raises(ValueError):
        filling_from_monomial((1, 0, 0, 0, 1), 4)  # involves t
    with pytest.raises(ValueError):
        filling_from_monomial((1, 1, 1, 0, 0), 4)  # support too large
    with pytest.raises(ValueError):
        filling_from_monomial((1, 0), 4)


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_fillings_from_monomials_are_permissible(n, data):
    ell = data.draw(st.integers(0, n // 2))
    support = data.draw(
        st.sets(st.integers(0, n - 1), min_size=ell, max_size=ell)
    )
    mono = tuple(1 if i in support else 0 for i in range(n))
    filling = filling_from_monomial(mono, n)
    assert is_permissible(filling)
    assert monomial_from_filling(filling)[:n] == mono


def test_text_form():
    filling = TwoRowFilling(top=(1, 3, 4), bottom=(2,))
    assert filling.text() == "[[1,3,4],[2]]"
    assert TwoRowFilling(top=(1, 2, 3), bottom=()).text() == "[[1,2,3],[]]"
    assert TwoRowFilling(top=(1,), bottom=()).text() == "[[1],[]]"
    assert TwoRowFilling(top=(1, 2, 5), bottom=(3, 4)).text() == "[[1,2,5],[3,4]]"


def test_enumeration_matches_the_filtered_subsets():
    # the reference: a filling for every bottom subset, kept when standard
    for n in range(13):
        for ell in range(n // 2 + 1):
            filtered = []
            for bottom in combinations(range(1, n + 1), ell):
                top = [v for v in range(1, n + 1) if v not in bottom]
                filling = TwoRowFilling(top=top, bottom=bottom)
                if is_standard(filling):
                    filtered.append(filling)
            assert enumerate_standard_tableaux(n, ell) == filtered


def test_standard_exactly_when_enumerated():
    # a squarefree monomial's filling is standard precisely when it shows
    # up in the enumeration of its shape
    for n in range(1, 8):
        for ell in range(n // 2 + 1):
            enumerated = set(enumerate_standard_tableaux(n, ell))
            for support in combinations(range(n), ell):
                mono = tuple(1 if i in support else 0 for i in range(n))
                filling = filling_from_monomial(mono, n)
                assert is_standard(filling) == (filling in enumerated)
