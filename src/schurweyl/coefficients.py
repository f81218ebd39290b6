"""Littlewood-Richardson and Kronecker coefficients, plus their branching sums.

Both coefficient families come with two genuinely independent computation
paths so that one can cross-validate the other:

* c^lambda_{mu nu}: lattice-word tableau enumeration (primary) and an
  induced-character inner product over S_k x S_{n-k} (secondary).
* g_{lambda mu nu}: class-weighted triple character sum; validated against
  its permutation symmetries and the dense tensor oracle elsewhere.
"""

from __future__ import annotations

from math import factorial

from .characters import dim_sym, dim_unitary, mn_character
from .errors import ConsistencyError
from .partitions import Partition, class_size, contains, partitions_of


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
    """Number of standard fillings of outer/inner by lattice-path counting.

    Same quantity as partitions.skew_standard_count but computed by dynamic
    programming over Young's lattice level by level, so it scales to
    diagrams with hundreds of boxes.  The brute-force count stays the
    oracle; this is the production path.
    """
    if not contains(inner, outer):
        return 0
    level: dict[Partition, int] = {inner: 1}
    for _ in range(sum(outer) - sum(inner)):
        nxt: dict[Partition, int] = {}
        for shape, ways in level.items():
            padded = shape + (0,) * (len(outer) - len(shape))
            for i in range(len(outer)):
                if padded[i] >= outer[i]:
                    continue
                if i > 0 and padded[i] + 1 > padded[i - 1]:
                    continue
                grown = padded[:i] + (padded[i] + 1,) + padded[i + 1 :]
                while grown and grown[-1] == 0:
                    grown = grown[:-1]
                nxt[grown] = nxt.get(grown, 0) + ways
        level = nxt
    return level.get(outer, 0)
