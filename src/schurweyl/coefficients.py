"""Littlewood-Richardson and Kronecker coefficients, their branching sums,
and skew dimensions.

Each quantity comes with a genuinely independent second computation path
so that one can cross-validate the other:

* c^lambda_{mu nu}: lattice-word tableau enumeration (primary) and an
  induced-character inner product over S_k x S_{n-k} (secondary).
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
    """c^lambda_{mu nu} by direct enumeration of Littlewood-Richardson tableaux.

    Counts fillings of the skew shape lambda/mu with content nu that are
    weakly increasing along rows, strictly increasing down columns, and
    whose reverse reading word is a lattice word.  Cells are visited in
    reverse reading order (rows top to bottom, right to left) so every
    constraint prunes immediately.
    """
    n, k, m = sum(lam), sum(mu), sum(nu)
    if k + m != n or not contains(mu, lam):
        return 0
    if m == 0:
        return 1
    nrows = len(lam)
    inner = list(mu) + [0] * (nrows - len(mu))
    cells = [
        (r, c)
        for r in range(nrows)
        for c in range(lam[r] - 1, inner[r] - 1, -1)
    ]
    values = len(nu)
    filling = [[0] * lam[r] for r in range(nrows)]
    counts = [0] * (values + 1)

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = filling[r][c + 1] if c + 1 < lam[r] else None
        above = filling[r - 1][c] if r > 0 and c < lam[r - 1] and c >= inner[r - 1] else 0
        lo = above + 1 if above else 1
        hi = right if right is not None else values
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice-word prefix would go negative
            counts[v] += 1
            filling[r][c] = v
            total += fill(idx + 1)
            filling[r][c] = 0
            counts[v] -= 1
        return total

    return fill(0)


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
