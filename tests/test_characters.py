from functools import lru_cache
from math import comb

import numpy as np
import pytest

from schurweyl import characters
from schurweyl.characters import (
    character_row,
    clear_character_cache,
    dim_sym,
    dim_unitary,
    mn_character,
)
from schurweyl.coefficients import branching_sum_kron, kronecker
from schurweyl.partitions import conjugate, partitions_of, rows
from schurweyl.werner import character_polynomial, degrees_of_freedom


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for alpha in partitions_of(n):
            assert mn_character((n,), alpha) == 1
            assert mn_character((1,) * n, alpha) == (-1) ** (n + rows(alpha))


def test_standard_representation_values():
    # chi for (2,1): 2 on the identity, 0 on transpositions, -1 on 3-cycles
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1


def test_mismatched_sizes_raise():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_arguments_are_canonicalised():
    assert mn_character((2, 1), (1, 1, 1, 0)) == 2  # trailing zero dropped
    assert mn_character((3,), (0, 3)) == 1  # a cycle type lists its parts in any order
    assert mn_character((3, 1), [1, 2, 1]) == mn_character((3, 1), (2, 1, 1)) == 1
    assert mn_character((2, 1, 0), (3,)) == -1
    with pytest.raises(ValueError):
        mn_character((1, 2), (3,))  # not a partition
    with pytest.raises(ValueError):
        mn_character((3,), (True, 2))
    assert character_row([2, 1, 0]) is character_row((2, 1))


@lru_cache(maxsize=None)
def reference_character(lam, alpha):
    """chi^lam(alpha) by border-strip removal on beta-sets held as lists.

    Written independently of the bitmask recursion in schurweyl.characters,
    down to the last part: no all-ones shortcut.
    """
    if not alpha:
        return 1
    t, rest = alpha[0], alpha[1:]
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    total = 0
    for b in beta:
        c = b - t
        if c < 0 or c in beta:
            continue
        height = sum(1 for x in beta if c < x < b)
        moved = sorted([x for x in beta if x != b] + [c], reverse=True)
        mu = tuple(x - (L - 1 - j) for j, x in enumerate(moved) if x - (L - 1 - j) > 0)
        total += (-1) ** height * reference_character(mu, rest)
    return total


def test_characters_equal_the_list_based_reference():
    clear_character_cache()
    for n in range(12):
        for lam in partitions_of(n):
            for alpha in partitions_of(n):
                assert mn_character(lam, alpha) == reference_character(lam, alpha), (lam, alpha)


def test_characters_on_edge_masks_equal_the_reference():
    clear_character_cache()
    assert mn_character((), ()) == 1 and character_row(()) == (1,)
    cases = [
        # the strip takes the whole first column, or a whole leg, emptying rows
        ((2, 1, 1), (3, 1)), ((1, 1, 1, 1), (4,)), ((2, 2, 1, 1), (4, 2)), ((3, 1, 1, 1), (4, 2)),
        ((3, 3, 1, 1), (3, 3, 2)), ((4, 1, 1, 1, 1), (5, 3)), ((2, 2, 2), (3, 3)),
    ]
    n = 24
    alphas = [(n,), (1,) * n, (2,) * 12, (5, 5, 4, 4, 3, 3), (7, 3, 2, 1, 1, 1) + (1,) * 9,
              (23, 1), (12, 12), (3,) * 8]
    for lam in [(n,), (1,) * n] + [(n - k,) + (1,) * k for k in range(1, n - 1)]:
        cases += [(lam, alpha) for alpha in alphas]
    for lam, alpha in cases:
        assert mn_character(lam, alpha) == reference_character(lam, alpha), (lam, alpha)
    # empty rows are shifted off: every beta-set mask in the memo has bit 0 clear
    assert all(key[0] & 1 == 0 for key in characters._char_cache)


def test_conjugate_characters_differ_by_the_sign():
    for n in range(11):
        signs = [(-1) ** (n - rows(alpha)) for alpha in partitions_of(n)]
        for lam in partitions_of(n):
            assert character_row(conjugate(lam)) == tuple(
                s * chi for s, chi in zip(signs, character_row(lam)))


def test_dim_sym_examples():
    assert dim_sym((2, 1)) == 2
    assert dim_sym((2, 2)) == 2
    for n in range(1, 8):
        assert dim_sym((n,)) == 1
        assert dim_sym((1,) * n) == 1
    assert dim_sym(()) == 1


def test_dim_sym_equals_character_at_identity():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert dim_sym(lam) == mn_character(lam, (1,) * n)


def test_dim_unitary_examples():
    for d in range(1, 7):
        assert dim_unitary((1,), d) == d
        assert dim_unitary((2, 1), d) == d * (d - 1) * (d + 1) // 3
        assert dim_unitary((n := 3,), d) == comb(d + n - 1, n)
    assert dim_unitary((1, 1, 1), 2) == 0
    assert dim_unitary((), 3) == 1
    # d is read as an integer: no float or bool answers, a numpy integer
    # becomes a Python int before any product
    for d in (2.5, 3.0, True):
        with pytest.raises(ValueError):
            dim_unitary((2, 1), d)
    big = dim_unitary((10, 10, 10), np.int64(50))
    assert type(big) is int and big == 194998761876932198098858444500
    with pytest.raises(ValueError):
        degrees_of_freedom(3, 2.0, "symmetric")


def test_character_table_rows():
    classes = partitions_of(3)
    assert classes == [(3,), (2, 1), (1, 1, 1)]
    assert [mn_character((2, 1), alpha) for alpha in classes] == [-1, 0, 2]
    assert mn_character((3,), (2, 1)) == 1


def test_cache_can_be_cleared_and_refilled():
    clear_character_cache()
    assert mn_character((2, 1), (1, 1, 1)) == 2
    clear_character_cache()
    assert mn_character((2, 1), (3,)) == -1


def test_clearing_the_cache_drops_polynomials_built_from_it():
    lam, alpha = (2, 1), (1, 1, 1)
    clear_character_cache()
    mn_character(lam, alpha)
    characters._char_cache[characters._beta_set(lam), alpha] = 5
    try:
        assert character_polynomial((2, 1), (2, 1)).coeffs != [0, 2, 0, 4]  # poisoned
    finally:
        clear_character_cache()
    assert character_polynomial((2, 1), (2, 1)).coeffs == [0, 2, 0, 4]


def test_clearing_the_cache_drops_character_rows():
    # fill the row and Kronecker memos first, so the clear has to empty both
    assert character_row((2, 1)) == (-1, 0, 2)
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    # g with (3) is 1 and g with (2,1) is 1: 4 + 2
    assert branching_sum_kron((2, 1), (2, 1), 2) == 6
    clear_character_cache()
    characters._char_cache[characters._beta_set((2, 1)), (1, 1, 1)] = 8
    try:
        assert character_row((2, 1)) == (-1, 0, 8)
        # (2 * (-1)^3 + 8^3) / 3! = 85; the true row gives 1
        assert kronecker((2, 1), (2, 1), (2, 1)) == 85
        # g with (3) becomes (2 + 8^2) / 3! = 11: 11 * 4 + 85 * 2
        assert branching_sum_kron((2, 1), (2, 1), 2) == 214
        assert character_polynomial((2, 1), (2, 1)).coeffs == [0, 2, 0, 64]
    finally:
        clear_character_cache()
    assert character_row((2, 1)) == (-1, 0, 2)
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert branching_sum_kron((2, 1), (2, 1), 2) == 6
    assert character_polynomial((2, 1), (2, 1)).coeffs == [0, 2, 0, 4]
