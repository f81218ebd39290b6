import random
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from schurweyl import oracle
from schurweyl.characters import dim_sym, dim_unitary, mn_character
from schurweyl.errors import (
    DEFAULT_SIZE_CAP,
    ConsistencyError,
    SizeCapError,
    current_size_cap,
    size_cap,
)
from schurweyl.oracle import (
    DenseOperator,
    identity_operator,
    partial_trace_inner,
    partial_trace_subsystems,
    permutation_operator,
    schur_weyl_projector,
    schur_weyl_weights,
    symmetric_average,
    trace_norm,
    verify_general_dual,
    werner_combination,
    young_projector,
)
from schurweyl.partitions import (
    check_standard_tableau,
    first_standard_tableau,
    partitions_of,
    standard_tableaux,
)
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


def test_measurements_take_the_n0_operator():
    empty = identity_operator(0, 4)
    assert symmetric_average(empty).same_as(empty)
    traced = partial_trace_inner(empty, 2, 2)
    assert (traced.n, traced.base) == (0, 2) and traced.same_as(identity_operator(0, 2))
    assert schur_weyl_weights(empty) == {(): 1}
    assert trace_norm(empty) == 1.0
    full = partial_trace_subsystems(empty, 0)  # keep = 0 is the full trace
    assert (full.n, full.base) == (0, 4) and full.same_as(empty)
    with pytest.raises(ValueError, match=r"keep must be in 0\.\.0"):
        partial_trace_subsystems(empty, 1)
    scalar = partial_trace_subsystems(identity_operator(2, 3), 0)
    assert (scalar.n, scalar.base) == (0, 3) and scalar.trace() == 9


def test_permutation_operators_compose():
    for a in permutations(range(3)):
        for b in permutations(range(3)):
            composed = tuple(a[b[i]] for i in range(3))
            lhs = permutation_operator(a, 2) @ permutation_operator(b, 2)
            assert lhs.same_as(permutation_operator(composed, 2))


def test_size_cap():
    with size_cap(64):
        with pytest.raises(SizeCapError):
            permutation_operator((0, 1, 2), 5)
        permutation_operator((0, 1, 2), 4)
    permutation_operator((0, 1, 2), 5)  # the default cap is back outside the block
    with pytest.raises(ValueError):
        with size_cap(32):
            pass
    with size_cap(None):
        assert current_size_cap() == DEFAULT_SIZE_CAP


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


def _random_element(rng, n):
    perms = list(permutations(range(n)))
    return {pi: rng.randint(-5, 5) for pi in rng.sample(perms, rng.randint(1, len(perms)))}


def test_represent_is_multiplicative():
    # non-commuting elements pin the composition order against _index_maps
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
    with size_cap(64):
        for t in standard_tableaux((2, 1)):
            with pytest.raises(SizeCapError):
                young_projector(t, 5)
        young_projector(first_standard_tableau((2, 1)), 4)


def test_young_projector_row_and_column_tableaux():
    row = first_standard_tableau((3,))
    assert young_projector(row, 2).same_as(schur_weyl_projector((3,), 2))
    col = ((1,), (2,), (3,))
    for d in (3, 4):
        assert young_projector(col, d).trace() == comb(d, 3)
    assert young_projector(col, 2).is_zero()


def test_partial_trace_subsystems_product_rule():
    # the rule itself is the check partial-trace-rules; this keeps the refusal
    a = _obj([[2, 1], [1, 3]])
    b = _obj([[1, 1], [1, 5]])
    ab = DenseOperator(np.array(np.kron(a, b).tolist(), dtype=object), Fraction(1, 7), 2, 2)
    with pytest.raises(ValueError):
        partial_trace_subsystems(ab, 3)


def test_partial_trace_inner_product_rule():
    # the rule itself is the check partial-trace-rules; this keeps the refusals
    a = _obj([[2, 1], [1, 3]])
    b = _obj([[1, 1], [1, 5]])
    ab = DenseOperator(np.array(np.kron(a, b).tolist(), dtype=object), Fraction(1), 1, 4)
    with pytest.raises(ValueError):
        partial_trace_inner(ab, 3, 2)
    for p, q in ((-2, -2), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            partial_trace_inner(schur_weyl_projector((2,), 4), p, q)


def test_symmetric_average_fixes_invariant_operators():
    p = schur_weyl_projector((2, 1), 2)
    assert symmetric_average(p).same_as(p)


def test_symmetric_average_output_commutes_with_permutations():
    avg = symmetric_average(young_projector(first_standard_tableau((2, 1)), 2))
    for pi in permutations(range(3)):
        op = permutation_operator(pi, 2)
        assert (op @ avg).same_as(avg @ op)


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
    red = partial_trace_inner(rho, p, q)
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
    with pytest.raises(ValueError, match="q >= n"):
        verify_general_dual(first_standard_tableau((2, 2)), 2, 3)


def test_general_dual_verdict_is_the_exact_certificate(check_passes, check_cases):
    # on the check's own cases: the verdict is the PSD remainder with
    # beta >= ((q-n+1)/q)^n, and that certificate bounds the float distance
    # by 2(1 - beta) (up to the rounding of a sum of p^n float eigenvalues)
    check_passes("general-dual-definetti")
    cases = [case for case in check_cases["general-dual-definetti"]
             if not isinstance(case[0], str)]
    assert len(cases) == 46
    for t, p, q in cases:
        rep = verify_general_dual(t, p, q)
        n = sum(map(len, t))
        beta = Fraction(rep["beta"])
        assert rep["pass"] == (rep["remainder_psd"] and beta >= Fraction(q - n + 1, q) ** n)
        assert rep["delta"] <= 2 * (1 - beta) + 1e-12


def test_verify_general_dual_represents_only_the_traced_side():
    t = first_standard_tableau((2, 1))
    with size_cap(64):
        with pytest.raises(SizeCapError):
            young_projector(t, 12)  # the dense path would need side 12^3 = 1728
        assert verify_general_dual(t, 2, 6)["pass"]  # side 2^3 = 8
        with pytest.raises(SizeCapError):
            verify_general_dual(first_standard_tableau((3, 2, 1)), 3, 6)  # side 3^6


def test_remainder_certificate_fails_above_beta():
    """Negative control: raising beta by 1 % breaks the exact certificate on
    states where beta itself passes."""
    for t, p, q in ((((1,), (2,), (3,)), 2, 5), (((1, 2, 3),), 3, 5)):
        rep = verify_general_dual(t, p, q)
        traced = oracle._traced_tableau_state(t, p, q)
        shift = Fraction(rep["beta"]) / p**3
        assert rep["remainder_psd"] and oracle._psd_above(traced, shift)
        assert not oracle._psd_above(traced, shift * Fraction(101, 100))
    off_weight = DenseOperator(_obj([[1, 1], [1, 1]]), Fraction(1), 1, 2)
    with pytest.raises(ConsistencyError, match="block diagonal by weight"):
        oracle._psd_above(off_weight, Fraction(0))


def _digits(x, base, n):
    return [(x // base ** (n - 1 - i)) % base for i in range(n)]


def _enc(digits, base):
    x = 0
    for v in digits:
        x = x * base + v
    return x


def _act(pi, digits):
    """The digits of pi . x, where (pi . x)[pi(i)] = x[i]."""
    out = [0] * len(pi)
    for i, v in enumerate(digits):
        out[pi[i]] = v
    return out


def _random_operator(rng, n, d, symmetric=False):
    dim = d**n
    rows_ = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)]
    if symmetric:
        rows_ = [[rows_[min(a, b)][max(a, b)] for b in range(dim)] for a in range(dim)]
    return DenseOperator(_obj(rows_), Fraction(rng.randint(1, 9), rng.randint(1, 9)), n, d)


def _projector_weights(m):
    """The block weights as they were first measured: tr(P_mu m) with every
    duality-block projector built as a dense matrix."""
    out = {}
    for mu in partitions_of(m.n, m.base):
        pmu = schur_weyl_projector(mu, m.base)
        out[mu] = pmu.scale * m.scale * int((pmu.mat * m.mat.T).sum())
    return out


def _literal_inner_trace(m, p, q):
    """partial_trace_inner(m, p, q) as a literal sum over the C^q numerals."""
    n, d = m.n, m.base

    def enc(i, j):  # i, j: the C^p and C^q numerals of a combined index
        return _enc([a * q + b for a, b in zip(_digits(i, p, n), _digits(j, q, n))], d)

    want = [[sum(m.mat[enc(a, j), enc(b, j)] for j in range(q**n))
             for b in range(p**n)] for a in range(p**n)]
    return DenseOperator(_obj(want), m.scale, n, p)


def test_measurements_match_literal_index_sums():
    rng = random.Random(8)
    spaces = ((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4),
              (4, 2), (4, 3))
    for m in (_random_operator(rng, n, d, sym) for n, d in spaces for sym in (False, True)):
        n, d, dim = m.n, m.base, m.dim
        for keep in range(1, n + 1):
            tail = d ** (n - keep)
            want = [[sum(m.mat[a * tail + t, b * tail + t] for t in range(tail))
                     for b in range(d**keep)] for a in range(d**keep)]
            got = partial_trace_subsystems(m, keep)
            assert got.same_as(DenseOperator(_obj(want), m.scale, keep, d)), (n, d, keep)
            assert not np.shares_memory(got.mat, m.mat), (n, d, keep)
        for p in (k for k in range(1, d + 1) if d % k == 0):
            got = partial_trace_inner(m, p, d // p)
            assert got.same_as(_literal_inner_trace(m, p, d // p)), (n, p, d // p)
            assert not np.shares_memory(got.mat, m.mat), (n, p, d // p)
        acts = [[_enc(_act(pi, _digits(x, d, n)), d) for x in range(dim)]
                for pi in permutations(range(n))]
        want = [[sum(m.mat[act[a], act[b]] for act in acts) for b in range(dim)]
                for a in range(dim)]
        assert symmetric_average(m).same_as(
            DenseOperator(_obj(want), m.scale / len(acts), n, d)), (n, d)
        literal = {}
        for mu in partitions_of(n, d):
            total = sum(mn_character(mu, oracle.cycle_type(pi)) * m.mat[x, act[x]]
                        for pi, act in zip(permutations(range(n)), acts) for x in range(dim))
            literal[mu] = m.scale * Fraction(dim_sym(mu), len(acts)) * total
        assert schur_weyl_weights(m) == literal == _projector_weights(m), (n, d)
    # four factors with both halves above 1: side 256, 16 x 16 entries of 16 terms
    m = _random_operator(rng, 4, 4)
    got = partial_trace_inner(m, 2, 2)
    assert got.same_as(_literal_inner_trace(m, 2, 2))
    assert not np.shares_memory(got.mat, m.mat)


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


def test_operators_keep_their_entries_exact():
    # int64 entries become Python ints, so a sum past 2^63 does not wrap to 0
    big = DenseOperator(np.full((2, 2), 2**62, dtype=np.int64), 1, 1, 2)
    assert all(type(v) is int for v in big.mat.flat)
    assert (big + big).trace() == 2**64
    # a float matrix would be truncated to trace 0; inexact dtypes are refused
    for mat in (np.array([[0.1, 0.2], [0.2, 0.3]]), np.eye(2, dtype=complex),
                np.eye(2, dtype=bool)):
        with pytest.raises(ValueError, match="dtype"):
            DenseOperator(mat, 1, 1, 2)


def test_integer_products_are_exact_python_ints():
    # both paths: int64 while k * amax * bmax < 2^63, Python ints beyond
    rng = random.Random(7)
    for bits in (20, 30, 40, 70):
        for side in (1, 3, 6):
            a, b = (_obj([[rng.randint(-2**bits, 2**bits) for _ in range(side)] for _ in range(side)])
                    for _ in range(2))
            zero = _obj([[0] * side for _ in range(side)])
            for x, y in ((a, b), (a, zero), (zero, b)):
                got = oracle._imatmul(x, y)
                assert got.dtype == object and (got == x.dot(y)).all()
                assert all(type(v) is int for v in got.flat)
    # -2^63 fits int64 but its magnitude does not: abs would wrap it negative
    got = oracle._imatmul(_obj([[-2**63, 0]]), _obj([[-1], [0]]))
    assert got[0, 0] == 2**63 and type(got[0, 0]) is int
