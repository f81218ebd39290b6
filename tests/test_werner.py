from fractions import Fraction
from math import factorial

import pytest

from schurweyl.characters import dim_sym, dim_unitary
from schurweyl.coefficients import branching_sum_lr, dim_skew
from schurweyl.partitions import conjugate, normalized, partitions_of
from schurweyl.werner import (
    IntPolynomial,
    WernerWeights,
    character_polynomial,
    cycle_sum_expansion,
    definetti_bound_dual,
    definetti_bound_sym,
    degrees_of_freedom,
    dual_trace,
    dual_twirl_cycle,
    fully_mixed,
    horn_witness,
    polynomial_as_json,
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
    assert polynomial_as_json(p) == [0, 24, 50, 35, 10, 1]


def test_character_polynomial_of_extreme_pair_is_a_falling_factorial():
    for n in range(1, 7):
        poly = character_polynomial((1,) * n, (n,))
        for q in range(-3, n + 3):
            expect = 1
            for i in range(n):
                expect *= q - i
            assert poly(q) == expect


def test_character_polynomial_symmetries():
    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                a = character_polynomial(lam, mu)
                assert a == character_polynomial(mu, lam)
                assert a == character_polynomial(conjugate(lam), conjugate(mu))
                b = character_polynomial(conjugate(lam), mu)
                assert all(b(q) == (-1) ** n * a(-q) for q in range(-n, n + 1))
                assert a(1) == (factorial(n) if lam == mu else 0)
                assert a.coeffs[0] == 0
                assert a.degree == n
                assert a.coeffs[-1] == dim_sym(lam) * dim_sym(mu)


def test_character_polynomial_rejects_size_mismatch():
    with pytest.raises(ValueError):
        character_polynomial((2, 1), (2,))


def test_root_range_diagonal_pairs():
    for n in range(1, 7):
        for lam in partitions_of(n):
            rr = root_range(lam, lam)
            assert rr.q_plus == 1
            assert 0 in rr.roots


def test_root_range_structure():
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                rr = root_range(lam, mu)
                assert rr.q_plus <= max(len(lam), len(mu))
                assert (rr.q_plus == 1) == (lam == mu)
                assert rr.roots == list(range(rr.q_minus + 1, rr.q_plus))
                poly = character_polynomial(lam, mu)
                assert all(poly(q) == 0 for q in rr.roots)
                assert poly(rr.q_plus) > 0 and poly(rr.q_minus) != 0


def test_root_range_rejects_empty():
    with pytest.raises(ValueError):
        root_range((), ())


def test_root_range_q_plus_examples():
    # q_plus(lam, lam) == 1 is test_root_range_diagonal_pairs
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
    # far beyond the coefficient sum: Aitken's determinant is the oracle here
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


def test_dual_trace_rejects_wide_diagrams():
    with pytest.raises(ValueError):
        dual_trace((1, 1, 1, 1, 1), 2, 2)


def test_trace_maps_reject_nonpositive_dimensions():
    for p, q in ((-1, -3), (0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match="p and q must be positive"):
            dual_trace((2, 1), p, q)
        with pytest.raises(ValueError, match="p and q must be positive"):
            cycle_sum_expansion((2, 1), p, q)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be positive"):
            trace_out_sym((2, 1), 2, d)


def test_dual_trace_weights_are_states(check_passes):
    check_passes("trace-maps-preserve-states")


def test_twirl_power_examples():
    assert dict(twirl_power((Fraction(1, 2), Fraction(1, 2)), 1).weights) == {
        (1,): Fraction(1)
    }
    pure = twirl_power((1, 0, 0), 3)
    assert pure.weight((3,)) == 1 and pure.is_state()
    for d in (2, 3):
        for k in (1, 2, 3):
            flat = twirl_power((Fraction(1, d),) * d, k)
            assert flat == fully_mixed(k, d)
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
    for n in range(1, 5):
        for d in (1, 2, 3):
            assert dual_twirl_cycle((1,) * n, d) == fully_mixed(n, d)


def test_dual_twirl_cycle_transposition_value():
    w = dual_twirl_cycle((2, 1), 3)
    assert dict(w.weights) == {
        (3,): Fraction(10, 27),
        (2, 1): Fraction(0),
        (1, 1, 1): Fraction(-1, 27),
    }
    assert w.total() == Fraction(1, 3)
    assert not w.is_state()


def test_dual_twirl_cycle_trace_identity():
    for n in range(1, 7):
        for d in range(1, 6):
            for alpha in partitions_of(n):
                w = dual_twirl_cycle(alpha, d)
                assert w.total() == Fraction(d ** len(alpha), d**n)
    assert dict(dual_twirl_cycle((3,), 1).weights) == {(3,): Fraction(1)}
    for d in (0, -1):
        with pytest.raises(ValueError):
            dual_twirl_cycle((2, 1), d)


def test_cycle_sum_recombination(check_passes):
    check_passes("cycle-sum-recombination")


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
    assert definetti_bound_dual(2, 2) == Fraction(3, 2)
    approx = definetti_bound_dual(2, 1000)
    lead = Fraction(4, 1000)
    assert abs(approx - lead) <= lead / 100
    with pytest.raises(ValueError):
        definetti_bound_dual(3, 2)


def test_dual_definetti_bound_holds_exactly(check_passes):
    check_passes("dual-definetti-weight-sweep")


def test_sym_definetti_bound_in_dominant_regime(check_passes):
    check_passes("sym-definetti-dominant-regime")


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


def test_horn_witness():
    w = horn_witness((2, 1), (1,))
    assert w.a == (1, 0, 0) and w.b == (1, 1, 0) and w.c == (2, 1, 0)
    assert tuple(x + y for x, y in zip(w.a, w.b)) == w.c
    w = horn_witness((3, 2), (3, 2))
    assert w.b == (0, 0, 0, 0, 0)
    assert horn_witness((3, 1), (2, 2)) is None


def test_werner_weights_json_roundtrip():
    w = dual_trace((2, 1), 2, 3)
    assert w.as_json()["weights"][0]["partition"] == [3]


def test_werner_weights_validation():
    with pytest.raises(ValueError):
        WernerWeights(2, 1, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        WernerWeights(3, 2, {(2,): Fraction(1)})
