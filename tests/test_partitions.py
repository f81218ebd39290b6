import json
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.coefficients import (
    branching_sum_kron,
    branching_sum_lr,
    dim_skew,
    littlewood_richardson,
    littlewood_richardson_char,
)
from schurweyl.oracle import (
    DenseOperator,
    identity_operator,
    partial_trace_inner,
    partial_trace_subsystems,
    permutation_operator,
    schur_weyl_projector,
    verify_general_dual,
    young_projector,
)
from schurweyl.partitions import (
    _accepted,
    as_cycle_type,
    as_partition,
    class_size,
    class_sizes,
    conjugate,
    contains,
    first_standard_tableau,
    format_partition,
    hooks,
    normalized,
    parse_partition,
    partitions_of,
    skew_standard_count,
    standard_tableaux,
)
from schurweyl.symfunc import (
    schur_eval,
    schur_eval_tableau,
    shifted_schur_eval,
)
from schurweyl.werner import (
    WernerWeights,
    definetti_bound_dual,
    definetti_bound_sym,
    degrees_of_freedom,
    dual_trace,
    dual_twirl_cycle,
    fully_mixed,
    trace_out_sym,
    twirl_power,
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


def test_partitions_of_rejects_non_integer_sizes():
    partitions_of(3)  # 3.0 hashes as 3, so a memo filled at 3 must not answer it
    for args in ((3.0,), (3, 2.5), (True,), (3, True), ("3",)):
        with pytest.raises(ValueError, match="must be an integer"):
            partitions_of(*args)
    assert partitions_of(np.int64(3)) == partitions_of(3)
    assert partitions_of(np.int64(4), np.int64(2)) == [(4,), (3, 1), (2, 2)]
    assert all(type(p) is int for lam in partitions_of(np.int64(3)) for p in lam)


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
    assert class_size((1, 2)) == 3  # in any order
    for bad in ((True, 2), (2, -1)):
        with pytest.raises(ValueError):
            class_size(bad)


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


def test_long_rows_do_not_exhaust_the_recursion_limit():
    # the enumerator keeps its own stack: one box is not one Python frame
    assert skew_standard_count((1200,), ()) == 1
    assert first_standard_tableau((1200,)) == (tuple(range(1, 1201)),)


def test_skew_fillings_are_standard():
    # inner cells read 0; the others hold 1..N once each, increasing along
    # rows and down columns
    for outer, inner in (((2, 1), ()), ((3, 2, 1), (1,)), ((4, 3, 1), (2, 1)), ((3, 3), (3,))):
        fillings = list(standard_tableaux(outer, inner))
        assert len(set(fillings)) == len(fillings) == skew_standard_count(outer, inner)
        n = sum(outer) - sum(inner)
        for t in fillings:
            assert tuple(map(len, t)) == outer
            cells = {(r, c): v for r, row in enumerate(t) for c, v in enumerate(row)}
            assert all(cells[r, c] == 0 for r, width in enumerate(inner) for c in range(width))
            assert sorted(v for v in cells.values() if v) == list(range(1, n + 1))
            for (r, c), v in cells.items():
                if v:
                    assert cells.get((r, c - 1), 0) < v and cells.get((r - 1, c), 0) < v


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


def test_accepted_tuples_are_reaccepted_by_identity_only():
    ones, two_one = (1, 1), (2, 1)
    assert as_partition(ones) is ones and as_partition(two_one) is two_one
    # equal to an accepted tuple and hashed alike, but not canonical
    for rows in ((True, 1), (1, True), (True, True)):
        with pytest.raises(ValueError):
            as_partition(rows)
    rebuilt = as_partition((np.int64(2), 1))
    assert rebuilt == (2, 1) and all(type(p) is int for p in rebuilt)
    listed = as_partition([2, 1])
    assert type(listed) is tuple and listed == (2, 1)
    # a new value enters the table as the object itself, and an equal
    # object accepted later neither replaces it nor is refused
    lam, twin = tuple([901, 900, 7]), tuple([901, 900, 7])
    assert lam not in _accepted
    assert as_partition(lam) is lam and as_partition(lam) is lam
    assert as_partition(twin) is twin and _accepted[lam] is lam
    for rows in ((1, 2), (2, 1.0), (0, 1), ([1],)):
        with pytest.raises(ValueError):
            as_partition(rows)
        assert not any(key is rows for key in _accepted)


def test_enumerated_partitions_are_the_accepted_objects():
    bounded, full = partitions_of(7, 3), partitions_of(7)
    for lam in bounded:
        assert _accepted[lam] is lam and lam in full
        assert full[full.index(lam)] is lam


SPECTRUM = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

# one partition argument of each public exact-layer function, as p -> value;
# every value is nonzero at p = (2, 1)
ENTRY_POINTS = {
    "littlewood_richardson lam": lambda p: littlewood_richardson(p, (1,), (2,)),
    "littlewood_richardson mu": lambda p: littlewood_richardson((3, 2), p, (2,)),
    "littlewood_richardson nu": lambda p: littlewood_richardson((3, 2), (2,), p),
    "littlewood_richardson_char lam": lambda p: littlewood_richardson_char(p, (1,), (2,)),
    "littlewood_richardson_char mu": lambda p: littlewood_richardson_char((3, 2), p, (2,)),
    "littlewood_richardson_char nu": lambda p: littlewood_richardson_char((3, 2), (2,), p),
    "branching_sum_lr lam": lambda p: branching_sum_lr(p, (1,), 2),
    "branching_sum_lr mu": lambda p: branching_sum_lr((3, 2), p, 2),
    "dim_skew outer": lambda p: dim_skew(p, (1,)),
    "dim_skew inner": lambda p: dim_skew((3, 2), p),
    "shifted_schur_eval mu": lambda p: shifted_schur_eval(p, (3, 2), 3),
    "shifted_schur_eval lam": lambda p: shifted_schur_eval((1,), p, 3),
    "schur_eval": lambda p: schur_eval(p, SPECTRUM),
    "schur_eval_tableau": lambda p: schur_eval_tableau(p, SPECTRUM),
    "dim_sym": dim_sym,
    "dim_unitary": lambda p: dim_unitary(p, 3),
    "hooks": hooks,
    "conjugate": conjugate,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_exact_layer_entry_points_validate_partitions(name):
    call = ENTRY_POINTS[name]
    for bad in ((1, 2), (True,), (2, -1)):
        with pytest.raises(ValueError):
            call(bad)
    value = call((2, 1))
    assert value and call((2, 1, 0)) == value and call([2, 1]) == value


# every size argument, read by partitions._size, as
# slot -> (the name its errors carry, a valid value, the first value below
# its range or None if it has no lower bound, x -> value)
SIZE_SLOTS = {
    "partitions_of n": ("n", 3, -1, lambda x: partitions_of(x)),
    "partitions_of max_rows": ("max_rows", 2, -1, lambda x: partitions_of(3, x)),
    "as_partition row": ("partition rows", 1, -1, lambda x: as_partition((3, x))),
    "dim_unitary d": ("d", 3, 0, lambda x: dim_unitary((2, 1), x)),
    "branching_sum_lr d": ("d", 2, 0, lambda x: branching_sum_lr((2, 1), (1,), x)),
    "branching_sum_kron q": ("q", 2, 0, lambda x: branching_sum_kron((2, 1), (2, 1), x)),
    "shifted_schur_eval d": ("d", 3, 1, lambda x: shifted_schur_eval((1,), (2, 1), x)),
    "trace_out_sym k": ("k", 2, 0, lambda x: trace_out_sym((2, 1), x, 2)),
    "trace_out_sym d": ("d", 2, 0, lambda x: trace_out_sym((2, 1), 2, x)),
    "dual_trace p": ("p", 2, 0, lambda x: dual_trace((2, 1), x, 3)),
    "dual_trace q": ("q", 3, 0, lambda x: dual_trace((2, 1), 2, x)),
    "twirl_power k": ("k", 2, 0, lambda x: twirl_power(SPECTRUM, x)),
    "dual_twirl_cycle d": ("d", 2, 0, lambda x: dual_twirl_cycle((2, 1), x)),
    "fully_mixed n": ("n", 2, 0, lambda x: fully_mixed(x, 2)),
    "fully_mixed d": ("d", 2, 0, lambda x: fully_mixed(2, x)),
    "definetti_bound_sym k": ("k", 2, 0, lambda x: definetti_bound_sym(x, 80)),
    "definetti_bound_sym lam_min": ("lam_min", 80, 0, lambda x: definetti_bound_sym(2, x)),
    "definetti_bound_dual n": ("n", 2, 0, lambda x: definetti_bound_dual(x, 4)),
    "definetti_bound_dual q": ("q", 4, 1, lambda x: definetti_bound_dual(2, x)),
    "degrees_of_freedom n": ("n", 3, -1, lambda x: degrees_of_freedom(x, 2, "symmetric")),
    "degrees_of_freedom d": ("d", 2, 0, lambda x: degrees_of_freedom(3, x, "symmetric")),
    "WernerWeights n": ("n", 1, -1, lambda x: WernerWeights(x, 2, {(1,): Fraction(1)})),
    "WernerWeights d": ("d", 2, 0, lambda x: WernerWeights(1, x, {(1,): Fraction(1)})),
    "schur_weyl_projector d": ("d", 2, 0, lambda x: schur_weyl_projector((2, 1), x)),
    "permutation_operator d": ("d", 2, 0, lambda x: permutation_operator((1, 0), x)),
    "identity_operator n": ("n", 2, -1, lambda x: identity_operator(x, 2)),
    "identity_operator d": ("d", 2, 0, lambda x: identity_operator(2, x)),
    "young_projector d": ("d", 2, 0, lambda x: young_projector(first_standard_tableau((2, 1)), x)),
    "partial_trace_subsystems keep": (
        "keep", 1, -1, lambda x: partial_trace_subsystems(identity_operator(2, 2), x)),
    "partial_trace_inner p": ("p", 2, 0, lambda x: partial_trace_inner(identity_operator(2, 4), x, 2)),
    "partial_trace_inner q": ("q", 2, 0, lambda x: partial_trace_inner(identity_operator(2, 4), 2, x)),
    "verify_general_dual p": (
        "p", 2, 0, lambda x: verify_general_dual(first_standard_tableau((2,)), x, 3)),
    "verify_general_dual q": (
        "q", 3, 1, lambda x: verify_general_dual(first_standard_tableau((2,)), 2, x)),
}


def _sizes_carried(value) -> tuple:
    """The sizes a result stores, after checking that it serialises."""
    if isinstance(value, WernerWeights):
        json.dumps(value.as_json())
        return value.n, value.d
    if isinstance(value, DenseOperator):
        return value.n, value.base
    if isinstance(value, dict):
        json.dumps(value)
        return value["p"], value["q"]
    return ()


@pytest.mark.parametrize("slot", SIZE_SLOTS)
def test_size_arguments_are_read_alike(slot):
    name, valid, low, call = SIZE_SLOTS[slot]
    for bad in (2.0, True, "3") + (() if low is None else (low,)):
        with pytest.raises(ValueError) as info:  # a TypeError escaping fails the test
            call(bad)
        message = str(info.value)
        assert re.search(rf"(?<!\w){name}(?!\w)", message) and repr(bad) in message, message
    got, want = call(np.int64(valid)), call(valid)
    assert got.same_as(want) if isinstance(got, DenseOperator) else got == want
    assert all(type(size) is int for size in _sizes_carried(got))


def test_size_faults_found_by_hand_name_their_own_argument():
    for args in ((3, -1), (0, -1)):
        with pytest.raises(ValueError, match="max_rows must be non-negative"):
            partitions_of(*args)
    with pytest.raises(ValueError, match="n must be an integer"):
        fully_mixed(2.0, 2)
    with pytest.raises(ValueError, match=r"p and q must be integers, got 3\.0"):
        dual_trace((2, 1), 2, 3.0)
    with pytest.raises(ValueError, match="p and q must be integers, got True"):
        dual_trace((2, 1), True, 3)
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.0"):
        trace_out_sym((2, 1), 2, 2.0)
    # numpy sizes are stored as plain ints, so the weights serialise
    for w in (dual_trace((2, 1), np.int64(2), 3), trace_out_sym((2, 1), 2, np.int64(2)),
              dual_twirl_cycle((2, 1), np.int64(2))):
        assert type(w.n) is int and type(w.d) is int
        assert json.loads(json.dumps(w.as_json()))["d"] == 2


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
