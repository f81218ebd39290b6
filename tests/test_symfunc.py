import random
from fractions import Fraction
from itertools import combinations, permutations
from math import perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.coefficients import dim_skew
from schurweyl.partitions import normalized, partitions_of, rows
from schurweyl.symfunc import (
    _det,
    _is_psd,
    schur_eval,
    schur_eval_tableau,
    shifted_schur_eval,
)


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


def test_integer_psd_test_is_the_principal_minor_rule():
    """A symmetric matrix is PSD iff every principal minor is >= 0."""
    rng = random.Random(11)
    for size in range(5):
        for trial in range(60):
            b = [[rng.randint(-3, 3) for _ in range(trial % (size + 1))] for _ in range(size)]
            m = [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]  # Gram: PSD, rank <= cols
            if size and trial % 3 == 1:
                i, j = rng.randrange(size), rng.randrange(size)
                m[i][j] -= 1  # a symmetric perturbation, usually breaking positivity
                m[j][i] -= i != j
            minors = (_leibniz([[m[r][c] for c in idx] for r in idx])
                      for k in range(1, size + 1) for idx in combinations(range(size), k))
            assert _is_psd(m) == all(x >= 0 for x in minors), m
    assert _is_psd([]) and _is_psd([[1, 1], [1, 1]]) and _is_psd([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    assert not _is_psd([[0, 1], [1, 0]]) and not _is_psd([[1, 2], [2, 1]])


def test_semistandard_count_is_the_unitary_dimension():
    # s_mu(1, ..., 1) counts the semistandard tableaux with entries 1..d
    for n in range(1, 6):
        for mu in partitions_of(n):
            for d in range(1, 5):
                assert schur_eval_tableau(mu, (1,) * d) == dim_unitary(mu, d)
            assert schur_eval_tableau(mu, ()) == 0
    assert schur_eval_tableau((), ()) == 1


def test_tableau_sum_takes_long_rows():
    # one row of 1200 boxes: the sweep merges shapes, nothing recurses per box
    assert schur_eval_tableau((1200,), (1,)) == 1
    half = Fraction(1, 2)
    assert schur_eval_tableau((300,), (half, half)) == Fraction(301, 2**300)


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


def test_shifted_schur_examples():
    assert shifted_schur_eval((1,), (2, 1), 2) == 3
    assert shifted_schur_eval((2,), (2, 1), 2) == 3
    assert shifted_schur_eval((), (3, 1), 2) == 1


def test_shifted_schur_is_independent_of_the_padding():
    for d in range(2, 6):
        assert shifted_schur_eval((2,), (2, 1), d) == 3
        assert shifted_schur_eval((1, 1), (2, 1), d) == 3


def test_shifted_schur_cost_does_not_grow_with_d(fresh_python):
    # d is only range-checked: the determinant has side min(rows, columns) of lam
    script = "from schurweyl import shifted_schur_eval as s; print(s((2, 1), (5, 3, 1), 200))"
    run = fresh_python("-c", script, timeout=10)
    assert run.returncode == 0, run.stderr
    assert Fraction(run.stdout.strip()) == shifted_schur_eval((2, 1), (5, 3, 1), 3) == 168


def test_scaling_limit_values():
    # frozen via the identity s* = (mn falling k) * dim_skew / f on scaled shapes
    assert shifted_schur_eval((2,), (20, 10), 2) == \
        Fraction(perm(30, 2) * dim_skew((20, 10), (2,)), dim_sym((20, 10)))
    deltas = []
    target = schur_eval((2,), normalized((2, 1)))
    assert target == Fraction(7, 9)
    for m in (1, 10, 100):
        lam = (2 * m, m)
        val = Fraction(shifted_schur_eval((2,), lam, 2), perm(3 * m, 2))
        deltas.append(abs(val - target))
    assert deltas == [Fraction(5, 18), Fraction(5, 261), Fraction(5, 2691)]


def _two_determinant_shifted_schur(mu, lam, d):
    """s*_mu(lam) as det[(a_i) falling (m_j)] / det[(a_i) falling (d - 1 - j)],
    both factorial determinants taken in full."""
    a = [(lam[i] if i < len(lam) else 0) + d - 1 - i for i in range(d)]
    m = [(mu[j] if j < len(mu) else 0) + d - 1 - j for j in range(d)]
    num = _det([[perm(ai, mj) for mj in m] for ai in a])
    den = _det([[perm(ai, d - 1 - j) for j in range(d)] for ai in a])
    return Fraction(num, den)


def test_shifted_schur_denominator_is_the_vandermonde_product():
    pairs = 0
    for n in range(9):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    low = max(rows(lam), rows(mu))
                    for d in range(low, low + 3):
                        assert shifted_schur_eval(mu, lam, d) == \
                            _two_determinant_shifted_schur(mu, lam, d), (mu, lam, d)
                        pairs += 1
    assert pairs > 3000
    assert shifted_schur_eval((), (), 0) == 1 == _two_determinant_shifted_schur((), (), 0)


def test_shifted_schur_rejects_insufficient_padding():
    with pytest.raises(ValueError):
        shifted_schur_eval((1, 1, 1), (3, 2, 1), 2)
