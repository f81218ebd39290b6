from decimal import Decimal
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.coefficients import branching_sum_lr, dim_skew
from schurweyl.partitions import normalized, partitions_of
from schurweyl.werner import (
    IntPolynomial,
    WernerWeights,
    character_polynomial,
    definetti_bound_dual,
    definetti_bound_sym,
    degrees_of_freedom,
    dual_trace,
    dual_twirl_cycle,
    fully_mixed,
    horn_witness,
    root_range,
    trace_distance,
    trace_out_sym,
    twirl_power,
)

def test_int_polynomial_basics():
    p = IntPolynomial([0, 24, 50, 35, 10, 1])
    assert str(p) == "q^5+10q^4+35q^3+50q^2+24q"
    assert p(1) == 120 and p(0) == 0 and p(-1) == 0
    assert p.degree == 5
    assert IntPolynomial([1, 0, 0]) == IntPolynomial([1])
    assert str(IntPolynomial([-1, -1, 1])) == "q^2-q-1"
    assert str(IntPolynomial([])) == "0"
    assert p.coeffs == [0, 24, 50, 35, 10, 1]


def test_character_polynomial_of_extreme_pair_is_a_falling_factorial():
    for n in range(1, 7):
        poly = character_polynomial((1,) * n, (n,))
        for q in range(-3, n + 3):
            expect = 1
            for i in range(n):
                expect *= q - i
            assert poly(q) == expect


def test_character_polynomial_rejects_size_mismatch():
    with pytest.raises(ValueError):
        character_polynomial((2, 1), (2,))


def test_root_range_rejects_empty():
    with pytest.raises(ValueError):
        root_range((), ())


def test_root_range_q_plus_examples():
    # q_plus(lam, lam) == 1 is checked by the verify check root-structure
    for n in range(2, 6):
        assert root_range((1,) * n, (n,)).q_plus == n
    assert root_range((4, 1), (2, 1, 1, 1)).q_plus == 3


def test_trace_out_sym_examples():
    w = trace_out_sym((2, 1), 2, 2)
    assert dict(w.weights) == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    for lam in partitions_of(3, 2):
        full = trace_out_sym(lam, 3, 2)
        assert full.weight(lam) == 1
    assert dict(trace_out_sym((2,), 1, 3).weights) == {(1,): Fraction(1)}
    with pytest.raises(ValueError):
        trace_out_sym((2, 1), 2, 1)
    with pytest.raises(ValueError):
        trace_out_sym((2, 1), 4, 2)


def test_trace_out_sym_matches_the_coefficient_sum():
    for n in range(1, 7):
        for d in range(1, 4):
            for lam in partitions_of(n, d):
                f = dim_sym(lam)
                for k in range(1, n + 1):
                    w = trace_out_sym(lam, k, d)
                    assert w.is_state()
                    for mu in partitions_of(k, d):
                        expect = Fraction(dim_sym(mu) * branching_sum_lr(lam, mu, d), f)
                        assert w.weight(mu) == expect


def test_trace_out_sym_matches_the_skew_dimension_at_large_sizes():
    # far beyond the coefficient sum.  dim_skew and trace_out_sym take the
    # same matrix from symfunc._skew_dets, of side min(rows, columns) of lam
    # whatever d is, so this checks the normalisers; test_coefficients.py
    # pins the determinant at these sizes
    for lam, k, d in (((1200, 900, 600, 300), 6, 4), ((242, 158), 3, 2)):
        f = dim_sym(lam)
        w = trace_out_sym(lam, k, d)
        for mu in partitions_of(k, d):
            assert w.weight(mu) == Fraction(dim_sym(mu) * dim_skew(lam, mu), f)


def test_dual_trace_collapses_for_p_equal_one():
    for n in range(1, 5):
        for lam in partitions_of(n, 3):
            w = dual_trace(lam, 1, 3)
            assert dict(w.weights) == {(n,): Fraction(1)}


def test_dual_trace_equals_the_character_polynomial_formula():
    # the formula dual_trace used before it became a row product; the two
    # paths share only the character rows
    for n in range(1, 9):
        for p in range(1, 4):
            for q in range(1, 5):
                for lam in partitions_of(n, p * q):
                    denom = factorial(n) * dim_unitary(lam, p * q)
                    expect = {
                        mu: Fraction(dim_unitary(mu, p) * character_polynomial(lam, mu)(q), denom)
                        for mu in partitions_of(n, p)
                    }
                    assert list(dual_trace(lam, p, q).weights.items()) == list(expect.items())


def test_dual_trace_rejects_wide_diagrams():
    with pytest.raises(ValueError):
        dual_trace((1, 1, 1, 1, 1), 2, 2)


def test_trace_maps_reject_nonpositive_dimensions():
    for p, q in ((-1, -3), (0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match="p and q must be positive"):
            dual_trace((2, 1), p, q)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be positive"):
            trace_out_sym((2, 1), 2, d)


def test_twirl_power_cost_does_not_grow_with_the_spectrum_length(fresh_python):
    # a k-box Jacobi-Trudi determinant reads h_0 .. h_k only, however long r is
    script = ("from schurweyl import twirl_power; w = twirl_power((1,) + (0,) * 19999, 2);"
              " print(w.d, w.weight((2,)), w.weight((1, 1)))")
    run = fresh_python("-c", script, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["20000", "1", "0"]


def test_twirl_power_examples():
    assert dict(twirl_power((Fraction(1, 2), Fraction(1, 2)), 1).weights) == {
        (1,): Fraction(1)
    }
    pure = twirl_power((1, 0, 0), 3)
    assert pure.weight((3,)) == 1 and pure.is_state()
    lam_bar = normalized((3, 1))
    w = twirl_power(lam_bar, 2)
    assert w.is_state()
    halves = twirl_power((0.5, 0.5), 2)
    assert halves == twirl_power((Fraction(1, 2), Fraction(1, 2)), 2)
    assert all(type(x) is Fraction for x in halves.weights.values())
    with pytest.raises(ValueError):
        twirl_power((0.7, 0.3), 2)  # as binary fractions they miss 1
    with pytest.raises(ValueError):
        twirl_power((Fraction(1, 2), Fraction(1, 4)), 2)
    with pytest.raises(ValueError):
        twirl_power((Fraction(3, 2), Fraction(-1, 2)), 2)


def test_dual_twirl_cycle_identity_type_is_fully_mixed():
    # fully_mixed is the identity's cycle operator; hold it to the closed
    # form of I / d^n, e^d_mu f_mu / d^n, key order included
    for n in range(1, 7):
        for d in range(1, 5):
            expect = {mu: Fraction(dim_unitary(mu, d) * dim_sym(mu), d**n)
                      for mu in partitions_of(n, d)}
            assert list(fully_mixed(n, d).weights.items()) == list(expect.items())
    assert dual_twirl_cycle((), 2).is_state()  # the empty cycle type is a state,
    with pytest.raises(ValueError):
        fully_mixed(0, 2)  # but the fully mixed state needs a subsystem


def test_dual_twirl_cycle_transposition_value():
    w = dual_twirl_cycle((2, 1), 3)
    assert dict(w.weights) == {
        (3,): Fraction(10, 27),
        (2, 1): Fraction(0),
        (1, 1, 1): Fraction(-1, 27),
    }
    assert w.total() == Fraction(1, 3)
    assert not w.is_state()
    for alpha in ((1, 2), (2, 0, 1)):  # cycle lengths in any order
        assert dual_twirl_cycle(alpha, 3) == w


def test_dual_twirl_cycle_trace_identity():
    assert dict(dual_twirl_cycle((3,), 1).weights) == {(3,): Fraction(1)}
    for d in (0, -1):
        with pytest.raises(ValueError):
            dual_twirl_cycle((2, 1), d)


def test_definetti_bound_sym():
    assert definetti_bound_sym(1, 10) == 0
    assert definetti_bound_sym(2, 3) == Fraction(1, 2)
    assert definetti_bound_sym(3, 100) == Fraction(9, 200)
    assert float(definetti_bound_sym(3, 100)) == 0.045
    with pytest.raises(ValueError):
        definetti_bound_sym(0, 5)


def test_definetti_bound_dual():
    for q in range(1, 8):
        assert definetti_bound_dual(1, q) == 0


def test_trace_distance():
    a = fully_mixed(2, 2)
    assert trace_distance(a, a) == 0
    point_a = WernerWeights(2, 2, {(2,): Fraction(1)})
    point_b = WernerWeights(2, 2, {(1, 1): Fraction(1)})
    assert trace_distance(point_a, point_b) == 2
    with pytest.raises(ValueError):
        trace_distance(a, fully_mixed(2, 3))


def test_fully_mixed():
    for p in range(2, 6):
        w = fully_mixed(2, p)
        assert w.weight((2,)) == Fraction(p + 1, 2 * p)
        assert w.weight((1, 1)) == Fraction(p - 1, 2 * p)
    assert dict(fully_mixed(1, 4).weights) == {(1,): Fraction(1)}
    assert dict(fully_mixed(3, 1).weights) == {(3,): Fraction(1)}


def test_degrees_of_freedom():
    assert degrees_of_freedom(2, 2, "werner") == 1
    assert degrees_of_freedom(2, 5, "werner") == 1
    for n in range(1, 6):
        assert degrees_of_freedom(n, n, "werner") == factorial(n) - 1
        assert degrees_of_freedom(n, n + 2, "werner") == factorial(n) - 1
    assert degrees_of_freedom(2, 2, "symmetric") == 9
    expected = sum(dim_unitary(lam, 3) ** 2 for lam in partitions_of(3, 3)) - 1
    assert degrees_of_freedom(3, 3, "symmetric") == expected
    with pytest.raises(ValueError):
        degrees_of_freedom(2, 2, "other")
    for kind in ("werner", "symmetric"):
        with pytest.raises(ValueError):
            degrees_of_freedom(3, 0, kind)
        for d in (2.0, True, 2.5):
            with pytest.raises(ValueError, match="d must be an integer"):
                degrees_of_freedom(3, d, kind)
        with pytest.raises(ValueError, match="n must be an integer"):
            degrees_of_freedom(3.0, 2, kind)
        assert degrees_of_freedom(np.int64(3), np.int64(2), kind) == degrees_of_freedom(3, 2, kind)


def test_horn_witness():
    w = horn_witness((2, 1), (1,))
    assert w.a == (1, 0) and w.b == (1, 1) and w.c == (2, 1)
    assert tuple(x + y for x, y in zip(w.a, w.b)) == w.c
    w = horn_witness((3, 2), (3, 2))
    assert w.b == (0, 0)
    assert horn_witness((3, 1), (2, 2)) is None


def test_werner_weights_json_roundtrip():
    w = dual_trace((2, 1), 2, 3)
    assert w.as_json()["weights"][0]["partition"] == [3]


def test_werner_weights_validation():
    with pytest.raises(ValueError):
        WernerWeights(2, 1, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        WernerWeights(3, 2, {(2,): Fraction(1)})
    for bad in ((3, 2, {(1, 2): Fraction(1)}), (2, 2, {(True, 1): Fraction(1)}),
                (3, 2, {(2, 1): Fraction(1), (2, 1, 0): Fraction(0)})):
        with pytest.raises(ValueError):
            WernerWeights(*bad)
    assert WernerWeights(3, 2, {(2, 1, 0): Fraction(1)}).weights == {(2, 1): Fraction(1)}
    for inexact in (1.0, True, "1", Decimal(1)):  # weights are exact: ints or Fractions
        with pytest.raises(ValueError, match="weights must be ints or Fractions"):
            WernerWeights(1, 2, {(1,): inexact})
    # one vector over the denominators 4, 6 and 12, and an int weight
    given = {(4,): Fraction(1, 4), (3, 1): Fraction(1, 6), (2, 2): 0, (2, 1, 1): Fraction(7, 12)}
    other = {(4,): Fraction(3, 2), (2, 1, 1): -1}
    w, v = WernerWeights(4, 3, given), WernerWeights(4, 3, other)
    assert w.weights == given and type(w.weight((2, 2))) is Fraction
    assert w.total() == sum(given.values(), Fraction(0)) == 1 and w.is_state()
    assert v.total() == sum(other.values(), Fraction(0)) and not v.is_state()
    assert w == WernerWeights(4, 3, {(4,): Fraction(3, 12), (3, 1): Fraction(2, 12),
                                     (2, 1, 1): Fraction(7, 12)})
    assert w != v and w != WernerWeights(4, 4, given)
    want = sum((abs(given.get(k, 0) - other.get(k, 0)) for k in set(given) | set(other)),
               Fraction(0))
    assert trace_distance(w, v) == trace_distance(v, w) == want == 3
