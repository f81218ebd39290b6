from collections import Counter
from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurweyl.partitions import (
    as_cycle_type,
    as_partition,
    class_size,
    class_sizes,
    conjugate,
    contains,
    format_partition,
    hooks,
    normalized,
    parse_partition,
    partitions_of,
    skew_standard_count,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def brute_partitions(n):
    """Independent enumeration: filter all bounded tuples."""
    if n == 0:
        return {()}
    found = set()
    for tup in product(range(n + 1), repeat=n):
        if sum(tup) == n and all(a >= b for a, b in zip(tup, tup[1:])):
            found.add(tuple(x for x in tup if x))
    return found


def test_partitions_of_small_examples():
    assert partitions_of(2, 2) == [(2,), (1, 1)]
    assert partitions_of(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_of(0, 3) == [()]


def test_partitions_of_matches_brute_force():
    for n in range(7):
        got = partitions_of(n)
        assert len(set(got)) == len(got)
        assert set(got) == brute_partitions(n)
    assert len(partitions_of(5, 5)) == 7


def test_partitions_of_row_bound_is_a_filter():
    for n in range(1, 8):
        full = partitions_of(n)
        for d in range(1, n + 1):
            assert partitions_of(n, d) == [lam for lam in full if len(lam) <= d]


def test_partitions_of_order_is_lex_decreasing():
    for n in range(1, 8):
        parts = partitions_of(n)
        assert parts == sorted(parts, reverse=True)


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_class_size_examples():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    for n in range(1, 7):
        assert class_size((n,)) == factorial(n - 1)
    assert class_size([2, 1]) == class_size((2, 1))  # any sequence of parts


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(a) for a in partitions_of(n)) == factorial(n)


def test_contains():
    assert contains((1,), (2, 1))
    assert not contains((2, 2), (3, 1))
    assert contains((2, 1), (2, 1))
    assert contains((), (3,))


def test_skew_standard_count_examples():
    assert skew_standard_count((2, 1), (1,)) == 2
    assert skew_standard_count((2, 1), (2, 1)) == 1
    for n in range(1, 7):
        assert skew_standard_count((n,), ()) == 1
    with pytest.raises(ValueError):
        skew_standard_count((2,), (1, 1))


def test_skew_count_of_full_shape_is_the_irrep_dimension():
    from schurweyl.characters import dim_sym

    for n in range(1, 8):
        for lam in partitions_of(n):
            assert skew_standard_count(lam, ()) == dim_sym(lam)


def test_as_partition_validation():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])
    for rows in ([2.5], [True, 1], [2, 1.0], ["3"]):
        with pytest.raises(ValueError):
            as_partition(rows)
    assert as_partition([np.int64(2), np.int8(1)]) == (2, 1)
    # tuples take a shortcut when already canonical; it must not admit more
    for rows in ((True, 1), (2, 1.0), (1, 2), (0, 1), (2, -1)):
        with pytest.raises(ValueError):
            as_partition(rows)
    lam = (3, 2, 2)
    assert as_partition(lam) is lam and as_partition(()) == ()
    assert as_partition((2, 0)) == (2,) and as_partition((0,)) == ()
    assert as_partition((np.int64(2), 1, 0)) == (2, 1)
    assert all(type(p) is int for p in as_partition((np.int64(2), 1)))


def test_parse_format_roundtrip():
    for text in ("[3,2,1]", "[]", "[5]"):
        assert format_partition(parse_partition(text)) == text
    with pytest.raises(ValueError):
        parse_partition("not json")
    with pytest.raises(ValueError):
        parse_partition('{"a": 1}')
    for text in ("[true]", "[2.5]", "[2, 1.0]"):
        with pytest.raises(ValueError):
            parse_partition(text)


def test_normalized():
    from fractions import Fraction

    assert normalized((2, 1)) == (Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        normalized(())


def test_hooks_are_memoised_tuples():
    assert hooks((3, 1)) == ((4, 2, 1), (1,))
    assert hooks([3, 1]) is hooks((3, 1))
    assert hooks(()) == ()


def test_class_sizes_follow_the_class_order():
    for n in range(9):
        assert class_sizes(n) == tuple(class_size(a) for a in partitions_of(n))
    with pytest.raises(ValueError):
        class_sizes(-1)


def test_cycle_types_are_canonicalised():
    assert as_cycle_type([1, 3, 0, 2]) == (3, 2, 1)
    assert as_cycle_type(()) == ()
    for bad in ([True, 1], [2, -1], ["a", 1], [1.5]):
        with pytest.raises(ValueError):
            as_cycle_type(bad)
