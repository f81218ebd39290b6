"""Littlewood-Richardson and Kronecker coefficients, their branching sums,
and skew dimensions.

Each quantity comes with a genuinely independent second computation path
so that one can cross-validate the other:

* c^lambda_{mu nu}: lattice-word tableau enumeration (primary) and an
  induced-character inner product over S_k x S_{n-k} (secondary).
* g_{lambda mu nu}: class-weighted triple character sum; validated against
  its permutation symmetries and the dense tensor oracle elsewhere.
* f^{lambda/mu}: Aitken's determinant (primary) and the brute-force chain
  count partitions.skew_standard_count (oracle).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .characters import dim_sym, dim_unitary, mn_character
from .errors import ConsistencyError
from .partitions import Partition, class_size, conjugate, contains, partitions_of
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
    total = 0
    for beta in partitions_of(k):
        hb = class_size(beta)
        cb = mn_character(mu, beta)
        if cb == 0:
            continue
        for gamma in partitions_of(m):
            cg = mn_character(nu, gamma)
            if cg == 0:
                continue
            joined = tuple(sorted(beta + gamma, reverse=True))
            total += hb * class_size(gamma) * cb * cg * mn_character(lam, joined)
    q, r = divmod(total, factorial(k) * factorial(m))
    if r:
        raise ConsistencyError("induced-character inner product is not an integer")
    return q


def kronecker(lam: Partition, mu: Partition, nu: Partition) -> int:
    """g_{lambda mu nu} = (1/n!) sum_alpha h_alpha chi^l chi^m chi^n, exact."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("Kronecker coefficients need equal box counts")
    total = sum(
        class_size(a) * mn_character(lam, a) * mn_character(mu, a) * mn_character(nu, a)
        for a in partitions_of(n)
    )
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
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("branching sum needs equal box counts")
    return sum(
        kronecker(lam, mu, nu) * e
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
    inner fits inside outer.  partitions.skew_standard_count is the
    independent brute-force oracle for this count.
    """
    if not contains(inner, outer):
        return 0
    if outer and len(outer) > outer[0]:
        # f^{lam/mu} = f^{lam'/mu'}: keep the matrix side at min(rows, columns)
        outer, inner = conjugate(outer), conjugate(inner)
    size = len(outer)
    a = [outer[i] - i + size - 1 for i in range(size)]
    b = [(inner[j] if j < len(inner) else 0) - j + size - 1 for j in range(size)]
    det = _det([[Fraction(falling_factorial(ai, bj)) for bj in b] for ai in a])
    value = factorial(sum(outer) - sum(inner)) * Fraction(det) / prod(factorial(ai) for ai in a)
    if value.denominator != 1 or value < 1:
        raise ConsistencyError(f"Aitken determinant for {outer}/{inner} is not a positive integer")
    return value.numerator
