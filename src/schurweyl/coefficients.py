"""Littlewood-Richardson and Kronecker coefficients, their branching sums,
and skew dimensions.

Each quantity comes with a genuinely independent second computation path
so that one can cross-validate the other:

* c^lambda_{mu nu}: a row-by-row count of lattice-word tableaux (primary)
  and an induced-character inner product over S_k x S_{n-k} (secondary).
* g_{lambda mu nu}: a row product, sum_alpha h_alpha chi^lambda(alpha)
  chi^mu(alpha) chi^nu(alpha) / n!, zipping the three memoised character
  rows with the class sizes; validated against its permutation symmetries,
  a literal per-class sum of mn_character values in the tests, and the
  dense tensor oracle elsewhere.
* f^{lambda/mu}: Aitken's determinant and the brute-force chain count
  partitions.skew_standard_count.  No production path consumes dim_skew:
  the subsystem trace goes through shifted Schur values, and dim_skew is
  kept as the independent oracle that reaches diagrams of thousands of
  boxes, where the chain count and the LR sum cannot.
"""

from __future__ import annotations

from math import factorial, prod
from operator import mul

from .characters import _character_row, character_row, dim_sym, dim_unitary
from .errors import ConsistencyError
from .partitions import (
    Partition,
    as_partition,
    class_sizes,
    conjugate,
    contains,
    partitions_of,
)
from .symfunc import _det, falling_factorial


def littlewood_richardson(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lambda_{mu nu}: Littlewood-Richardson tableaux counted row by row.

    Counts fillings of the skew shape lambda/mu with content nu that are
    weakly increasing along rows, strictly increasing down columns, and
    whose reverse reading word is a lattice word (Macdonald, Symmetric
    Functions, I.9).  A row is filled value by value: the entries <= v end
    at a column capped by the row length, by where the entries <= v - 1
    end in the row above (columns strictly increase), by nu_v (the content)
    and by the count of v - 1 in the rows above (read right to left, a
    row's v come before its v - 1, so that is the whole lattice condition).
    A state between rows is the content so far plus the row's ends, and
    equal states merge their counts, so nothing recurses.
    """
    n, k, m = sum(lam), sum(mu), sum(nu)
    if k + m != n or not contains(mu, lam):
        return 0
    if m == 0:
        return 1
    inner = list(mu) + [0] * (len(lam) - len(mu))
    # (content, ends): where the entries <= v end in the row above, for
    # v = 0..len(nu); cells of mu count as 0, and the top row has no row above
    states = {((0,) * len(nu), (lam[0],) * (len(nu) + 1)): 1}
    for length, start in zip(lam, inner):
        merged: dict[tuple, int] = {}
        for (content, above), ways in states.items():
            # how many of each value the row may take
            rooms = [min(bound, content[v - 1] if v else bound) - content[v]
                     for v, bound in enumerate(nu)]
            fills, least = [(start,)], length - sum(rooms)
            for v, room in enumerate(rooms):
                least += room  # the end the later values can still fill the row from
                fills = [ends + (end,) for ends in fills
                         for end in range(max(ends[-1], least),
                                          min(length, above[v], ends[-1] + room) + 1)]
            for ends in fills:
                key = (tuple(c + b - a for c, a, b in zip(content, ends, ends[1:])), ends)
                merged[key] = merged.get(key, 0) + ways
        states = merged
    return sum(states.values())


def littlewood_richardson_char(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lambda_{mu nu} as the inner product of the restricted character with
    chi^mu x chi^nu over S_k x S_{n-k}.  Independent of the tableau path.
    """
    n, k, m = sum(lam), sum(mu), sum(nu)
    if k + m != n:
        return 0
    chi_lam = dict(zip(partitions_of(n), character_row(lam)))
    total = 0
    for beta, hb, cb in zip(partitions_of(k), class_sizes(k), character_row(mu)):
        if cb == 0:
            continue
        for gamma, hg, cg in zip(partitions_of(m), class_sizes(m), character_row(nu)):
            if cg == 0:
                continue
            joined = tuple(sorted(beta + gamma, reverse=True))
            total += hb * hg * cb * cg * chi_lam[joined]
    q, r = divmod(total, factorial(k) * factorial(m))
    if r:
        raise ConsistencyError("induced-character inner product is not an integer")
    return q


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """g_{lambda mu nu} = (1/n!) sum_alpha h_alpha chi^l chi^m chi^n, exact.

    The arguments are canonicalised first; the sum is a product of the three
    class-ordered character rows with the class sizes.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("Kronecker coefficients need equal box counts")
    return _kronecker(lam, mu, nu, n)


def _kronecker(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """kronecker on canonical partitions of n, unchecked."""
    total = sum(map(mul, map(mul, class_sizes(n), _character_row(lam)),
                    map(mul, _character_row(mu), _character_row(nu))))
    q, r = divmod(total, factorial(n))
    if r:
        raise ConsistencyError("character triple sum is not divisible by n!")
    if q < 0:
        raise ConsistencyError("Kronecker coefficient came out negative")
    return q


def branching_sum_lr(lam: Partition, mu: Partition, d: int) -> int:
    """sum over nu in Par(|lambda|-|mu|, d) of c^lambda_{mu nu} f_nu."""
    m = sum(lam) - sum(mu)
    if m < 0:
        return 0
    return sum(
        c * dim_sym(nu)
        for nu in partitions_of(m, d)
        if (c := littlewood_richardson(lam, mu, nu))
    )


def branching_sum_kron(lam: Partition, mu: Partition, q: int) -> int:
    """sum over nu in Par(n, q) of g_{lambda mu nu} e^q_nu."""
    lam, mu = as_partition(lam), as_partition(mu)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("branching sum needs equal box counts")
    return sum(
        _kronecker(lam, mu, nu, n) * e
        for nu in partitions_of(n, q)
        if (e := dim_unitary(nu, q))
    )


def dim_skew(outer: Partition, inner: Partition) -> int:
    """Number of standard fillings of outer/inner, by Aitken's determinant.

    f^{lam/mu} = N! det[1 / (lam_i - mu_j - i + j)!] with N = |lam| - |mu|
    and 1/m! = 0 for m < 0 (Macdonald, Symmetric Functions, I.7 Ex. 3).
    Row i is scaled by a_i! with a_i = lam_i - i + l - 1 (l rows, mu
    zero-padded to l), which turns every entry into the integer falling
    factorial a_i (a_i - 1) ... (a_i - b_j + 1) with b_j = mu_j - j + l - 1.
    A diagram with more rows than columns is conjugated first, which
    leaves the count unchanged and keeps the matrix side at most
    sqrt(|lam|).  Exact for diagrams with thousands of boxes; 0 unless
    inner fits inside outer.  Kept as the deliberately independent oracle
    for werner.trace_out_sym, which takes the same counts from shifted
    Schur values (the tests and perfbench compare the two);
    partitions.skew_standard_count is in turn its brute-force oracle.
    """
    if not contains(inner, outer):
        return 0
    if outer and len(outer) > outer[0]:
        # f^{lam/mu} = f^{lam'/mu'}: keep the matrix side at min(rows, columns)
        outer, inner = conjugate(outer), conjugate(inner)
    size = len(outer)
    a = [outer[i] - i + size - 1 for i in range(size)]
    b = [(inner[j] if j < len(inner) else 0) - j + size - 1 for j in range(size)]
    det = _det([[falling_factorial(ai, bj) for bj in b] for ai in a])
    value, rem = divmod(factorial(sum(outer) - sum(inner)) * det, prod(factorial(ai) for ai in a))
    if rem or value < 1:
        raise ConsistencyError(f"Aitken determinant for {outer}/{inner} is not a positive integer")
    return value
