"""Irreducible characters of the symmetric group and the two dimension counts.

Characters are computed by the Murnaghan-Nakayama rule on the abacus.  The
beta-set of lambda (first-column hook lengths lambda_i + l - 1 - i) is held
as an int bitmask.  Removing a border strip of length t moves one set bit b
down to a free position b - t, and its sign is (-1) to the popcount of the
bits strictly between them.  Trailing ones are empty rows and are shifted
off, so each diagram has one mask.  Once the remaining cycle type is all
ones the recursion stops at chi^mu(1^m) = f_mu from the hook formula, so
its depth is the number of parts >= 2.  Everything here is exact integer
arithmetic.

The memo is a plain module-level dict keyed by (mask, alpha suffix), one
entry per recursion state; chi^lambda(alpha) is read from the entry
(_beta_set(lambda), alpha), so a value put in there is what every row and
sum sees.  Reads and writes are atomic under the GIL; a duplicated
concurrent computation of the same entry is harmless because entries are
idempotent.  On top of it sits the row memo: character_row(lam) is
chi^lam on every class in partitions_of(|lam|) order, read once from the
dict, so a full class sum is a zip of rows with partitions.class_sizes
instead of one mn_character call per class.

The Kronecker memo is built from the rows, so it lives here too and
clear_character_cache empties it with them; coefficients.kronecker reads
it.  The e^d memo is built from hook lengths alone, so no clear touches it.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul

from .errors import ConsistencyError
from .partitions import (
    Partition,
    _hooks,
    _size,
    as_cycle_type,
    as_partition,
    class_sizes,
    partitions_of,
    rows,
)

# chi values keyed by (beta-set mask, alpha suffix); exposed so tests can poison it
_char_cache: dict[tuple, int] = {}


def clear_character_cache() -> None:
    """Empty the character memo, the row memo and the Kronecker memo."""
    _char_cache.clear()
    _character_row.cache_clear()
    _kronecker.cache_clear()


def mn_character(lam: Partition, alpha: Partition) -> int:
    """chi^lambda(alpha) for |lambda| = |alpha|, by border-strip recursion.

    Strips are removed for the parts of alpha from largest to smallest; the
    value does not depend on that order, only the memo fill does.  lambda
    must be a partition (trailing zeros are dropped) and alpha may list its
    cycle lengths in any order; anything else raises ValueError.
    """
    lam, alpha = as_partition(lam), as_cycle_type(alpha)
    if sum(lam) != sum(alpha):
        raise ValueError(
            f"box counts differ: |{lam}| = {sum(lam)}, |{alpha}| = {sum(alpha)}"
        )
    return _mn(_beta_set(lam), alpha)


def character_row(lam: Partition) -> tuple[int, ...]:
    """chi^lambda on every class of S_|lambda|, in partitions_of(|lambda|) order.

    Memoised on the canonical partition and read from the same
    Murnaghan-Nakayama memo as mn_character; clear_character_cache drops it.
    Zipped with partitions.class_sizes(n), it turns every class-weighted
    character sum into a row product.
    """
    return _character_row(as_partition(lam))


@lru_cache(maxsize=None)
def _character_row(lam: Partition) -> tuple[int, ...]:
    mask = _beta_set(lam)
    return tuple(_mn(mask, alpha) for alpha in partitions_of(sum(lam)))


@lru_cache(maxsize=None)
def _kronecker(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """coefficients.kronecker on canonical partitions of n, unchecked, memoised."""
    total = sum(map(mul, map(mul, class_sizes(n), _character_row(lam)),
                    map(mul, _character_row(mu), _character_row(nu))))
    q, r = divmod(total, factorial(n))
    if r:
        raise ConsistencyError("character triple sum is not divisible by n!")
    if q < 0:
        raise ConsistencyError("Kronecker coefficient came out negative")
    return q


def _beta_set(lam: Partition) -> int:
    """The beta-set of a partition as a bitmask: bit lam_i + (l - 1 - i) per row."""
    mask = 0
    for below, part in enumerate(reversed(lam)):
        mask |= 1 << (part + below)
    return mask


def _mn(mask: int, alpha: Partition) -> int:
    key = (mask, alpha)
    val = _char_cache.get(key)
    if val is None:
        t = alpha[0] if alpha else 1
        if t == 1:  # chi^mu(1^m) = f_mu
            val = _dim_sym(_partition(mask))
        else:
            rest = alpha[1:]
            val = 0
            # bits b >= t whose target b - t is free
            movable = mask & ~(mask << t) & -(1 << t)
            while movable:
                top = movable & -movable
                movable ^= top
                bottom = top >> t
                smaller = mask ^ top ^ bottom
                if smaller & 1:  # trailing ones are empty rows
                    smaller >>= (smaller ^ (smaller + 1)).bit_length() - 1
                # the sign is the parity of the bits strictly between b - t and b
                if (mask & (top - 1) & -bottom).bit_count() & 1:
                    val -= _mn(smaller, rest)
                else:
                    val += _mn(smaller, rest)
        _char_cache[key] = val
    return val


def _partition(mask: int) -> Partition:
    """Inverse of _beta_set on a mask whose bit 0 is clear."""
    parts = []
    while mask:
        low = mask & -mask
        mask ^= low
        parts.append(low.bit_length() - 1 - len(parts))
    return tuple(reversed(parts))


def dim_sym(lam: Partition) -> int:
    """f_lambda, the dimension of the symmetric-group irrep: hook length formula."""
    return _dim_sym(as_partition(lam))


def _dim_sym(lam: Partition) -> int:
    """dim_sym on a canonical partition, unchecked: the all-ones leaf of _mn."""
    n = sum(lam)
    num = factorial(n)
    for row in _hooks(lam):
        for h in row:
            num //= h
    return num


def dim_unitary(lam: Partition, d: int) -> int:
    """e^d_lambda, the dimension of the unitary-group irrep with highest weight lambda.

    Hook-content product: prod over boxes (i,j) of (d + j - i) / hook(i,j).
    Zero when the diagram has more than d rows.  Validated here, then
    memoised on (canonical lambda, d): the dual trace's checks ask for the
    same few hundred values thousands of times.  d must be a positive
    integer (numpy integers are accepted, bools are not); anything else
    raises ValueError.
    """
    return _dim_unitary(as_partition(lam), _size(d, "d"))


@lru_cache(maxsize=None)
def _dim_unitary(lam: Partition, d: int) -> int:
    """dim_unitary on a canonical partition and d >= 1, unchecked."""
    if rows(lam) > d:
        return 0
    num = 1
    den = 1
    hk = _hooks(lam)
    for i in range(len(lam)):
        for j in range(lam[i]):
            num *= d + j - i
            den *= hk[i][j]
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError("hook-content product is not an integer")
    return q
