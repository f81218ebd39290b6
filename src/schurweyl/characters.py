"""Irreducible characters of the symmetric group and the two dimension counts.

Characters are computed by the Murnaghan-Nakayama rule, i.e. recursive
border-strip removal, phrased on beta-sets (first-column hook lengths):
removing a strip of length t from lambda is moving one beta entry down by t,
and the sign is (-1)^(number of entries jumped over).  Everything here is
exact integer arithmetic.

The memo cache is a plain module-level dict.  Reads and writes are atomic
under the GIL; a duplicated concurrent computation of the same entry is
harmless because entries are idempotent.  On top of it sits the row memo:
character_row(lam) is chi^lam on every class in partitions_of(|lam|) order,
read once from the dict, so a full class sum is a zip of rows with
partitions.class_sizes instead of one mn_character call per class.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import ConsistencyError
from .partitions import (
    Partition,
    as_cycle_type,
    as_partition,
    class_sizes,
    hooks,
    partitions_of,
    rows,
)

# (lambda, alpha) -> chi^lambda(alpha); exposed so tests can poison it
_char_cache: dict[tuple[Partition, Partition], int] = {}


def clear_character_cache() -> None:
    """Empty the character memo and every memo built from its values."""
    from .werner import _chi_poly  # werner imports this module

    _char_cache.clear()
    _character_row.cache_clear()
    _chi_poly.cache_clear()


def _strip_removals(lam: Partition, t: int):
    """Yield (sign, smaller partition) for each border strip of length t."""
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]  # strictly decreasing
    bset = set(beta)
    for i, b in enumerate(beta):
        c = b - t
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        nb = sorted((x for x in beta if x != b), reverse=True)
        nb.append(c)
        nb.sort(reverse=True)
        mu = tuple(nb[j] - (L - 1 - j) for j in range(L))
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        yield (-1) ** height, mu


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
    return _mn(lam, alpha)


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
    return tuple(_mn(lam, alpha) for alpha in partitions_of(sum(lam)))


def _mn(lam: Partition, alpha: Partition) -> int:
    if not alpha:
        return 1
    key = (lam, alpha)
    val = _char_cache.get(key)
    if val is None:
        t, rest = alpha[0], alpha[1:]
        val = sum(sign * _mn(mu, rest) for sign, mu in _strip_removals(lam, t))
        _char_cache[key] = val
    return val


def dim_sym(lam: Partition) -> int:
    """f_lambda, the dimension of the symmetric-group irrep: hook length formula."""
    n = sum(lam)
    num = factorial(n)
    for row in hooks(lam):
        for h in row:
            num //= h
    return num


def dim_unitary(lam: Partition, d: int) -> int:
    """e^d_lambda, the dimension of the unitary-group irrep with highest weight lambda.

    Hook-content product: prod over boxes (i,j) of (d + j - i) / hook(i,j).
    Zero when the diagram has more than d rows.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if rows(lam) > d:
        return 0
    num = 1
    den = 1
    hk = hooks(lam)
    for i in range(len(lam)):
        for j in range(lam[i]):
            num *= d + j - i
            den *= hk[i][j]
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError("hook-content product is not an integer")
    return q


def dim_unitary_charsum(lam: Partition, d: int) -> int:
    """e^d_lambda again, via (1/n!) sum_alpha h_alpha d^c(alpha) chi^lambda(alpha).

    Independent of the hook-content product; used as a cross-check.
    """
    n = sum(lam)
    total = sum(
        h * d ** rows(alpha) * chi
        for alpha, h, chi in zip(partitions_of(n), class_sizes(n), character_row(lam))
    )
    q, r = divmod(total, factorial(n))
    if r:
        raise ConsistencyError(f"character sum for e^{d}_{lam} not divisible by n!")
    return q

