from math import comb, factorial

import pytest

from schurweyl import characters
from schurweyl.characters import (
    clear_character_cache,
    dim_sym,
    dim_unitary,
    dim_unitary_charsum,
    mn_character,
)
from schurweyl.partitions import partitions_of, rows
from schurweyl.werner import character_polynomial


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


def test_dim_sym_squares_sum_to_group_order():
    for n in range(1, 9):
        assert sum(dim_sym(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_dim_unitary_examples():
    for d in range(1, 7):
        assert dim_unitary((1,), d) == d
        assert dim_unitary((2, 1), d) == d * (d - 1) * (d + 1) // 3
        assert dim_unitary((n := 3,), d) == comb(d + n - 1, n)
    assert dim_unitary((1, 1, 1), 2) == 0
    assert dim_unitary((), 3) == 1


def test_dim_unitary_two_paths_agree():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for d in range(1, 7):
                assert dim_unitary(lam, d) == dim_unitary_charsum(lam, d)


def test_character_table_orthogonality_small(check_passes):
    check_passes("character-orthogonality")


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
    key = ((2, 1), (1, 1, 1))
    clear_character_cache()
    mn_character(*key)
    characters._char_cache[key] = 5
    try:
        assert character_polynomial((2, 1), (2, 1)).coeffs != [0, 2, 0, 4]  # poisoned
    finally:
        clear_character_cache()
    assert character_polynomial((2, 1), (2, 1)).coeffs == [0, 2, 0, 4]
