import inspect
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from schurweyl import characters
from schurweyl.characters import (
    character_row,
    clear_character_cache,
    dim_sym,
    dim_unitary,
    mn_character,
)
from schurweyl.coefficients import (
    branching_sum_kron,
    branching_sum_lr,
    dim_skew,
    kronecker,
    littlewood_richardson,
)
from schurweyl.partitions import (
    class_size,
    conjugate,
    contains,
    partitions_of,
    skew_standard_count,
)


def test_lr_examples():
    assert littlewood_richardson((2,), (1,), (1,)) == 1
    assert littlewood_richardson((2, 1), (1,), (2,)) == 1
    assert littlewood_richardson((2, 1), (1,), (1, 1)) == 1
    assert littlewood_richardson((2, 1), (1,), (1,)) == 0  # size mismatch
    assert littlewood_richardson((3, 1), (2, 2), (1,)) == 0  # not contained
    assert littlewood_richardson((2, 2), (), (3, 1)) == 0  # nu not contained
    assert littlewood_richardson((1,) * 6, (1,), (2, 1, 1, 1)) == 0
    assert littlewood_richardson((3, 2, 1), (2, 1), (2, 1)) == 2
    assert littlewood_richardson((4, 2), (2, 1), (2, 1)) == 1


def reference_lr(lam, mu, nu):
    """c^lambda_{mu nu} by filling lambda/mu one cell at a time, in reverse
    reading order, and backtracking; the cell enumerator the row count replaced."""
    if sum(mu) + sum(nu) != sum(lam) or not contains(mu, lam):
        return 0
    inner = list(mu) + [0] * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, inner[r] - 1, -1)]
    filling = [[0] * row for row in lam]
    counts = [0] * (len(nu) + 1)

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = filling[r - 1][c] if r > 0 and inner[r - 1] <= c < lam[r - 1] else 0
        hi = filling[r][c + 1] if c + 1 < lam[r] else len(nu)
        total = 0
        for v in range(above + 1, hi + 1):
            if counts[v] >= nu[v - 1] or (v > 1 and counts[v] >= counts[v - 1]):
                continue  # content exhausted, or the lattice word would break
            counts[v] += 1
            filling[r][c] = v
            total += fill(idx + 1)
            filling[r][c] = 0
            counts[v] -= 1
        return total

    return fill(0)


def test_lr_row_count_equals_the_cell_enumerator():
    for n in range(9):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        assert littlewood_richardson(lam, mu, nu) == reference_lr(lam, mu, nu), \
                            (lam, mu, nu)
    seven = (12, 10, 8, 6, 4, 2)
    assert littlewood_richardson((20, 18, 16, 12, 8, 6, 4), seven, seven) == 42666
    assert littlewood_richardson((1200,), (100,), (1100,)) == 1
    # a column: one state per row, and each row may take one new value
    assert littlewood_richardson((1,) * 300, (1,) * 30, (1,) * 270) == 1
    assert littlewood_richardson((1,) * 300, (1,) * 30, (1,) * 269) == 0


def test_kronecker_examples():
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                # coupling to the trivial representation is orthogonality
                assert kronecker(lam, mu, (n,)) == (1 if lam == mu else 0)
        assert kronecker((1,) * n, (1,) * n, (n,)) == 1
    with pytest.raises(ValueError):
        kronecker((2,), (1,), (2,))


def _class_sum_kronecker(lam, mu, nu):
    """g by the literal per-class sum over mn_character, no character rows."""
    n = sum(lam)
    total = sum(class_size(a) * mn_character(lam, a) * mn_character(mu, a) * mn_character(nu, a)
                for a in partitions_of(n))
    g, r = divmod(total, factorial(n))
    assert r == 0
    return g


def test_kronecker_equals_the_literal_class_sum():
    for n in range(7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert kronecker(lam, mu, nu) == _class_sum_kronecker(lam, mu, nu)
    rng = random.Random(10)
    for n in (10, 11, 12):
        parts = partitions_of(n)
        for _ in range(12):
            triple = rng.choices(parts, k=3)
            assert kronecker(*triple) == _class_sum_kronecker(*triple)


def test_kronecker_memo_keeps_each_ordering_apart():
    # the memo keys the ordered triple: each ordering is a product of its
    # own, not a read of a shared entry
    clear_character_cache()
    a, b, c = (2, 1), (3,), (2, 1)
    assert kronecker(a, b, c) == kronecker(b, a, c) == 1
    assert characters._kronecker.cache_info().currsize == 2
    # plain functions, so a tracer that wraps functions still sees each call
    assert inspect.isfunction(kronecker) and inspect.isfunction(dim_unitary)


def test_character_rows_follow_the_class_order():
    for n in range(9):
        classes = partitions_of(n)
        for lam in classes:
            assert character_row(lam) == tuple(mn_character(lam, a) for a in classes)


def test_kronecker_canonicalises_its_arguments():
    assert kronecker((2, 1, 0), [2, 1], (3, 0, 0)) == 1
    with pytest.raises(ValueError):
        kronecker((1, 2), (2, 1), (3,))
    with pytest.raises(ValueError):
        branching_sum_kron((1, 2), (2, 1), 2)


def test_branching_sum_lr_examples():
    assert branching_sum_lr((2, 1), (1,), 2) == 2
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert branching_sum_lr(lam, lam, n) == 1
    assert branching_sum_lr((3, 1), (2, 2), 4) == 0


def test_branching_sum_kron_examples():
    for n in range(1, 6):
        for q in range(1, 6):
            assert branching_sum_kron((n,), (n,), q) == comb(q + n - 1, n)
        if n >= 2:
            assert branching_sum_kron((1,) * n, (n,), n - 1) == 0
    assert branching_sum_kron((2, 1), (2, 1), 1) == 1
    with pytest.raises(ValueError):
        branching_sum_kron((2, 1), (2,), 2)


def test_dim_skew_scales_to_large_shapes():
    # restriction rule: f_lam = sum over mu of f_mu * dim(lam/mu)
    lam = (40, 30, 20)
    k = 3
    total = sum(dim_sym(mu) * dim_skew(lam, mu) for mu in partitions_of(k))
    assert total == dim_sym(lam)


def test_dim_skew_with_empty_inner_is_the_hook_length_formula():
    for lam in ((), (120, 100, 80), (200, 150), (100, 90, 80, 70), (301,), (1,) * 300):
        assert dim_skew(lam, ()) == dim_sym(lam)


def _corners_removed(lam):
    """Each diagram lam - c for a removable corner c of lam."""
    for i, row in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < row:
            yield tuple(p for p in lam[:i] + (row - 1,) + lam[i + 1:] if p)


def test_dim_skew_box_removal_recurrence():
    # dim(lam/mu) = sum over removable corners c with mu inside lam - c of dim((lam - c)/mu)
    for lam, mu in (((120, 100, 80), (2, 1)), ((360, 180), (3,)),
                    (conjugate((120, 100, 80)), (2, 1))):
        smaller = [shape for shape in _corners_removed(lam) if contains(mu, shape)]
        assert len(smaller) >= 2
        assert dim_skew(lam, mu) == sum(dim_skew(shape, mu) for shape in smaller)


def test_partitions_of_returns_a_fresh_list():
    first = partitions_of(6, 3)
    second = partitions_of(6, 3)
    assert first == second and first is not second
    first.clear()
    second.append((99,))
    assert partitions_of(6, 3) == [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2)]


@st.composite
def contained_pair(draw):
    outer = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    outer = tuple(sorted(outer, reverse=True))
    inner = tuple(
        draw(st.integers(0, outer[i])) for i in range(len(outer))
    )
    inner = tuple(sorted((x for x in inner if x), reverse=True))
    if not contains(inner, outer):
        inner = ()
    return outer, inner


@settings(max_examples=40, deadline=None)
@given(contained_pair())
def test_dim_skew_property(pair):
    outer, inner = pair
    assert dim_skew(outer, inner) == skew_standard_count(outer, inner)
