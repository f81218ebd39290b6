import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.coefficients import dim_skew
from schurweyl.partitions import contains, normalized, partitions_of, rows
from schurweyl.symfunc import (
    _det,
    falling_factorial,
    schur_eval,
    schur_eval_tableau,
    semistandard_tableaux,
    shifted_schur_eval,
)


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-2, 2) == 6
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def _leibniz(m):
    def sign(perm):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        return -1 if inversions % 2 else 1

    return sum(sign(p) * prod(m[i][p[i]] for i in range(len(m)))
               for p in permutations(range(len(m))))


def test_integer_determinant_is_the_leibniz_sum():
    rng = random.Random(5)
    for size in range(6):
        for trial in range(40):
            m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if size and trial % 4 == 1:
                m[0][0] = 0  # the first pivot needs a row swap
            if size > 1 and trial % 4 == 2:
                m[-1] = [x - 2 * y for x, y in zip(m[0], m[-2])]  # singular
            det = _det(m)
            assert type(det) is int and det == _leibniz(m)
            if size > 1 and trial % 4 == 2:
                assert det == 0
    assert _det([]) == 1
    assert _det([[0, 1], [1, 0]]) == -1


def test_semistandard_count_is_the_unitary_dimension():
    for n in range(1, 6):
        for mu in partitions_of(n):
            for d in range(1, 5):
                assert sum(1 for _ in semistandard_tableaux(mu, d)) == dim_unitary(mu, d)


def test_schur_first_row_sums():
    r = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert schur_eval((1,), r) == 1


def test_schur_single_tableau_on_pure_spectrum():
    for k in range(1, 5):
        assert schur_eval((k,), (1, 0, 0)) == 1
        assert schur_eval((k, 1), (1, 0, 0)) == 0


def test_schur_principal_specialization():
    for k in range(1, 5):
        for d in range(1, 5):
            flat = (Fraction(1, d),) * d
            for mu in partitions_of(k, d):
                assert schur_eval(mu, flat) == Fraction(dim_unitary(mu, d), d**k)


def test_schur_too_many_rows_gives_zero():
    assert schur_eval((1, 1, 1), (Fraction(1, 2), Fraction(1, 2))) == 0


@st.composite
def rational_spectrum(draw):
    # small ranges make zero and repeated entries common
    d = draw(st.integers(2, 4))
    raw = [draw(st.integers(0, 4)) for _ in range(d)]
    total = sum(raw) or 1
    return tuple(sorted((Fraction(x, total) for x in raw), reverse=True))


@settings(max_examples=30, deadline=None)
@given(rational_spectrum(), st.integers(1, 5))
def test_schur_jacobi_trudi_equals_tableau_sum(r, k):
    for mu in partitions_of(k):
        assert schur_eval(mu, r) == schur_eval_tableau(mu, list(r))


def test_shifted_schur_single_box_is_the_size():
    for n in range(1, 7):
        for lam in partitions_of(n):
            d = max(rows(lam), 1)
            assert shifted_schur_eval((1,), lam, d) == n


def test_shifted_schur_vanishes_outside_containment(check_passes):
    check_passes("inner-sum-vanishing")
    # and is positive inside it
    for n in range(1, 7):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    if contains(mu, lam):
                        assert shifted_schur_eval(mu, lam, max(rows(lam), rows(mu))) > 0


def test_shifted_schur_examples():
    assert shifted_schur_eval((1,), (2, 1), 2) == 3
    assert shifted_schur_eval((2,), (2, 1), 2) == 3
    assert shifted_schur_eval((), (3, 1), 2) == 1


def test_shifted_schur_is_independent_of_the_padding():
    for d in range(2, 6):
        assert shifted_schur_eval((2,), (2, 1), d) == 3
        assert shifted_schur_eval((1, 1), (2, 1), d) == 3


def test_inner_sum_identity(check_passes):
    check_passes("inner-sum-subsystem")


def test_scaling_limit_values():
    # frozen via the identity s* = (mn falling k) * dim_skew / f on scaled shapes
    assert shifted_schur_eval((2,), (20, 10), 2) == \
        Fraction(falling_factorial(30, 2) * dim_skew((20, 10), (2,)), dim_sym((20, 10)))
    deltas = []
    target = schur_eval((2,), normalized((2, 1)))
    assert target == Fraction(7, 9)
    for m in (1, 10, 100):
        lam = (2 * m, m)
        val = Fraction(shifted_schur_eval((2,), lam, 2), falling_factorial(3 * m, 2))
        deltas.append(abs(val - target))
    assert deltas == [Fraction(5, 18), Fraction(5, 261), Fraction(5, 2691)]


def test_scaling_limit_rate(check_passes):
    check_passes("shifted-schur-scaling-limit")


def test_shifted_schur_rejects_insufficient_padding():
    with pytest.raises(ValueError):
        shifted_schur_eval((1, 1, 1), (3, 2, 1), 2)
