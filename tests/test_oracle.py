import random
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from schurweyl import oracle
from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.errors import SizeCapError
from schurweyl.oracle import (
    DenseOperator,
    check_standard_tableau,
    first_standard_tableau,
    identity_operator,
    partial_trace_inner,
    partial_trace_subsystems,
    permutation_operator,
    schur_weyl_projector,
    schur_weyl_weights,
    standard_tableaux,
    symmetric_average,
    trace_norm,
    verify_general_dual,
    werner_combination,
    young_projector,
)
from schurweyl.partitions import partitions_of
from schurweyl.werner import fully_mixed


def _obj(rows_):
    arr = np.empty((len(rows_), len(rows_[0])), dtype=object)
    arr[:] = rows_
    return arr


def test_permutation_operator_basics():
    ident = permutation_operator((0, 1), 3)
    assert ident.same_as(identity_operator(2, 3))
    swap = permutation_operator((1, 0), 2)
    assert swap.trace() == 2  # one cycle
    assert (swap @ swap).same_as(identity_operator(2, 2))
    with pytest.raises(ValueError):
        permutation_operator((0, 0), 2)
    assert permutation_operator((), 2).same_as(identity_operator(0, 2))  # n = 0: side 1
    assert identity_operator(0, 2).trace() == 1


def test_permutation_traces_count_cycles(check_passes):
    check_passes("permutation-traces")


def test_permutation_operators_compose():
    for a in permutations(range(3)):
        for b in permutations(range(3)):
            composed = tuple(a[b[i]] for i in range(3))
            lhs = permutation_operator(a, 2) @ permutation_operator(b, 2)
            assert lhs.same_as(permutation_operator(composed, 2))


def test_size_cap():
    with pytest.raises(SizeCapError):
        permutation_operator((0, 1, 2), 5, size_cap=64)
    with pytest.raises(ValueError):
        permutation_operator((0, 1), 2, size_cap=32)
    permutation_operator((0, 1, 2), 4, size_cap=64)


def test_constructors_reject_nonpositive_d(monkeypatch):
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be positive"):
            schur_weyl_projector((2, 1), d)
        with pytest.raises(ValueError, match="d must be positive"):
            permutation_operator((1, 0), d)
        with pytest.raises(ValueError, match="d must be positive"):
            identity_operator(0, d)
        with pytest.raises(ValueError, match="d must be positive"):
            young_projector(first_standard_tableau((2, 1)), d)
    # rejected before the Jucys-Murphy idempotent is multiplied out
    monkeypatch.setattr(oracle, "_jucys_murphy_idempotent", None)
    with pytest.raises(ValueError, match="d must be positive"):
        young_projector(first_standard_tableau((3, 3, 2)), 0)


def test_schur_weyl_projector_family(check_passes):
    check_passes("duality-projector-families")


def test_schur_weyl_projector_simple_traces():
    for d in (2, 3):
        for n in (2, 3):
            assert schur_weyl_projector((n,), d).trace() == comb(d + n - 1, n)
    assert schur_weyl_projector((2, 1), 2).trace() == 4
    assert schur_weyl_projector((1, 1, 1), 2).is_zero()


def test_standard_tableaux_enumeration():
    for n in range(1, 6):
        for shape in partitions_of(n):
            tabs = list(standard_tableaux(shape))
            assert len(tabs) == dim_sym(shape)
            for t in tabs:
                check_standard_tableau(t)
    assert first_standard_tableau((2, 1)) == ((1, 2), (3,))
    with pytest.raises(ValueError):
        check_standard_tableau(((1, 4), (2, 3)))  # second column decreases
    with pytest.raises(ValueError):
        check_standard_tableau(((2, 1), (3,)))  # first row decreases
    with pytest.raises(ValueError):
        check_standard_tableau(((1, 2), (4,)))  # entries are not 1..n


def test_young_projector_properties(check_passes):
    check_passes("tableau-projectors")


def _random_element(rng, n):
    perms = list(permutations(range(n)))
    return {pi: rng.randint(-5, 5) for pi in rng.sample(perms, rng.randint(1, len(perms)))}


def test_represent_is_multiplicative():
    # non-commuting elements pin the composition order against _perm_index_map
    rng = random.Random(0)
    for n in (3, 4):
        for d in (2, 3):
            for _ in range(4):
                a, b = _random_element(rng, n), _random_element(rng, n)
                while (ab := oracle._multiply(a, b)) == oracle._multiply(b, a):
                    b = _random_element(rng, n)
                lhs = oracle._represent(ab.items(), d, n)
                rhs = oracle._represent(a.items(), d, n) @ oracle._represent(b.items(), d, n)
                assert lhs.same_as(rhs)


def test_young_projectors_resolve_the_block():
    for n in (3, 4):
        for shape in partitions_of(n):
            for d in (2, 3):
                ps = [young_projector(t, d) for t in standard_tableaux(shape)]
                total = identity_operator(n, d) * 0
                for i, p in enumerate(ps):
                    total = total + p
                    for other in ps[i + 1:]:
                        assert (p @ other).is_zero()
                assert total.same_as(schur_weyl_projector(shape, d))


def _spectral_young_projector(t, d):
    """Deliberately independent reference for young_projector.

    The joint spectral projector of the Jucys-Murphy operators, built the
    direct way on (C^d)^(x n): every L_k is assembled from explicit factor
    swaps and the product of (L_k - c)/(c_k - c) over all c in -(k-1)..k-1
    is taken with dense matrix products.  Costs d^n-sided products, so it
    is only used at d^n <= 64.
    """
    n = sum(len(row) for row in t)
    dim = d**n
    contents = {v: c - r for r, row in enumerate(t) for c, v in enumerate(row)}
    states = [tuple((x // d ** (n - 1 - i)) % d for i in range(n)) for x in range(dim)]
    index = {s: x for x, s in enumerate(states)}
    proj = DenseOperator(_obj(np.eye(dim, dtype=int).tolist()), Fraction(1), n, d)
    for k in range(2, n + 1):
        lk = np.zeros((dim, dim), dtype=int)
        for i in range(k - 1):
            for x, s in enumerate(states):
                swapped = list(s)
                swapped[i], swapped[k - 1] = s[k - 1], s[i]
                lk[index[tuple(swapped)], x] += 1
        for c in range(-(k - 1), k):
            if c != contents[k]:
                factor = DenseOperator(_obj((lk - c * np.eye(dim, dtype=int)).tolist()),
                                       Fraction(1, contents[k] - c), n, d)
                proj = proj @ factor
    return proj


def test_young_projector_matches_the_spectral_reference():
    checked = 0
    for n in range(1, 7):
        for d in range(1, 9):
            if d**n > 64:
                continue
            for shape in partitions_of(n):
                for t in standard_tableaux(shape):
                    assert young_projector(t, d).same_as(_spectral_young_projector(t, d)), (t, d)
                    checked += 1
    assert checked == 264


def test_young_projector_size_cap():
    for t in standard_tableaux((2, 1)):
        with pytest.raises(SizeCapError):
            young_projector(t, 5, size_cap=64)
    young_projector(first_standard_tableau((2, 1)), 4, size_cap=64)


def test_young_projector_row_and_column_tableaux():
    row = first_standard_tableau((3,))
    assert young_projector(row, 2).same_as(schur_weyl_projector((3,), 2))
    col = ((1,), (2,), (3,))
    for d in (3, 4):
        assert young_projector(col, d).trace() == comb(d, 3)
    assert young_projector(col, 2).is_zero()


def test_young_projector_symmetric_average_collapses_the_block(check_passes):
    check_passes("tableau-projectors")


def test_partial_trace_subsystems_product_rule():
    a = _obj([[2, 1], [1, 3]])
    b = _obj([[1, 1], [1, 5]])
    ab = DenseOperator(np.array(np.kron(a, b).tolist(), dtype=object), Fraction(1, 7), 2, 2)
    red = partial_trace_subsystems(ab, 1)
    want = DenseOperator(a * 6, Fraction(1, 7), 1, 2)
    assert red.same_as(want)
    assert red.trace() == ab.trace()
    assert partial_trace_subsystems(ab, 2).same_as(ab)
    with pytest.raises(ValueError):
        partial_trace_subsystems(ab, 3)


def test_partial_trace_matches_weight_formula(check_passes):
    check_passes("subsystem-trace-oracle")


def test_partial_trace_inner_product_rule():
    a = _obj([[2, 1], [1, 3]])
    b = _obj([[1, 1], [1, 5]])
    ab = DenseOperator(np.array(np.kron(a, b).tolist(), dtype=object),
                       Fraction(1), 1, 4, bipartite=(2, 2))
    red = partial_trace_inner(ab)
    assert red.same_as(DenseOperator(a * 6, Fraction(1), 1, 2))
    assert red.trace() == ab.trace()
    with pytest.raises(ValueError):
        partial_trace_inner(ab, 3, 2)
    plain = DenseOperator(_obj([[1, 0], [0, 1]]), Fraction(1), 1, 2)
    with pytest.raises(ValueError):
        partial_trace_inner(plain)


def test_partial_trace_inner_matches_dual_weights():
    for p, q in ((2, 2), (2, 3)):
        lam = (2,)
        ef = dim_unitary(lam, p * q) * dim_sym(lam)
        rho = schur_weyl_projector(lam, p * q) * Fraction(1, ef)
        rho.bipartite = (p, q)
        red = partial_trace_inner(rho)
        assert red.trace() == 1
        wts = schur_weyl_weights(red)
        den = 2 * (p * q + 1)
        assert wts[(2,)] == Fraction((p + 1) * (q + 1), den)
        assert wts[(1, 1)] == Fraction((p - 1) * (q - 1), den)


def test_symmetric_average_fixes_invariant_operators():
    p = schur_weyl_projector((2, 1), 2)
    assert symmetric_average(p).same_as(p)


def test_symmetric_average_output_commutes_with_permutations():
    avg = symmetric_average(young_projector(first_standard_tableau((2, 1)), 2))
    for pi in permutations(range(3)):
        op = permutation_operator(pi, 2)
        assert (op @ avg).same_as(avg @ op)


def test_symmetric_average_of_cycle_operators(check_passes):
    check_passes("cycle-operator-oracle")


def test_trace_norm():
    p = schur_weyl_projector((2,), 2)
    assert abs(trace_norm(p) - 3.0) < 1e-9
    a = werner_combination(fully_mixed(2, 2))
    b = schur_weyl_projector((2,), 2) * Fraction(1, 3)
    c = schur_weyl_projector((1, 1), 2)
    assert abs(trace_norm(b - c) - 2.0) < 1e-9  # orthogonal states
    assert abs(trace_norm(a - a)) < 1e-12
    with pytest.raises(ValueError):
        trace_norm(permutation_operator((1, 2, 0), 2))


def test_trace_norm_worked_example():
    # distance between the traced symmetric state and fully mixed at p=q=2
    p = q = 2
    lam = (2,)
    ef = dim_unitary(lam, p * q) * dim_sym(lam)
    rho = schur_weyl_projector(lam, p * q) * Fraction(1, ef)
    rho.bipartite = (p, q)
    red = partial_trace_inner(rho)
    mixed = werner_combination(fully_mixed(2, p))
    expect = Fraction(p * p - 1, p * p * q + p)
    assert expect == Fraction(3, 10)
    assert abs(trace_norm(red - mixed) - float(expect)) < 1e-9


def test_verify_general_dual_report():
    rep = verify_general_dual(first_standard_tableau((2, 1)), 2, 3)
    assert rep["pass"]
    assert Fraction(rep["beta"]) == Fraction(8, 35)  # (q-1)(q-2)/((q-1/p)(q+1/p))
    assert rep["delta"] <= rep["bound"]
    rep = verify_general_dual(first_standard_tableau((2,)), 2, 2)
    assert rep["pass"]
    with pytest.raises(ValueError):
        verify_general_dual(first_standard_tableau((2, 1)), 2, 2)


def test_operator_arithmetic_sanity():
    ident = identity_operator(2, 2)
    twice = ident + ident
    assert twice.same_as(ident * 2)
    assert (twice * Fraction(1, 2)).same_as(ident)
    swap = permutation_operator((1, 0), 2)
    assert not swap.same_as(ident)
    assert (swap - swap).is_zero()
    with pytest.raises(ValueError):
        ident + identity_operator(3, 2)
