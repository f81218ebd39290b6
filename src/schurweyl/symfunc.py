"""Schur polynomials at a spectrum and shifted Schur functions at a partition.

Every value is one integer determinant, taken by fraction-free Bareiss
elimination.  Ordinary Schur values use Jacobi-Trudi, det[h_{mu_i - i + j}],
on the spectrum scaled to integers, so repeated and zero entries need no
special case.  The semistandard-tableau monomial sum is kept only as the
independent oracle for small shapes.

Shifted Schur values use the ratio of factorial determinants
det[(lam_i + d - i) falling (mu_j + d - j)] / det[(lam_i + d - i) falling (d - j)].
The normalization is pinned by the exact identity
f_lam * s*_mu(lam) / (n falling k) = dim lam/mu, which the test suite
enforces rather than assumes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import lcm

from .partitions import Partition, rows

Spectrum = Sequence


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); the empty product 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination (Math. Comp.
    22, 1968): every division is exact, so entries stay integers.  Rows are
    swapped only when a pivot is zero; the 0 x 0 determinant is 1.
    """
    a = [list(row) for row in m]
    size = len(a)
    sign, prev = 1, 1
    for col in range(size):
        if a[col][col] == 0:
            swap = next((r for r in range(col + 1, size) if a[r][col]), None)
            if swap is None:
                return 0
            a[col], a[swap] = a[swap], a[col]
            sign = -sign
        top = a[col]
        for row in a[col + 1:]:
            lead = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * top[col] - lead * top[c]) // prev
        prev = top[col]
    return sign * prev


def semistandard_tableaux(shape: Partition, d: int) -> Iterator[tuple[int, ...]]:
    """Yield the content of each semistandard filling of `shape` with entries 1..d.

    Rows weakly increase, columns strictly increase.  Only the content
    vector (count of each entry) is surfaced; that is all the monomial sum
    needs.
    """
    if rows(shape) > d:
        return
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    filling = [[0] * shape[r] for r in range(len(shape))]
    content = [0] * (d + 1)

    def fill(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == len(cells):
            yield tuple(content[1:])
            return
        r, c = cells[idx]
        lo = filling[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, filling[r - 1][c] + 1)
        for v in range(lo, d + 1):
            filling[r][c] = v
            content[v] += 1
            yield from fill(idx + 1)
            content[v] -= 1
            filling[r][c] = 0

    yield from fill(0)


def schur_eval_tableau(mu: Partition, r: Spectrum):
    """s_mu(r) as the monomial sum over semistandard tableaux."""
    d = len(r)
    total = 0
    for content in semistandard_tableaux(mu, d):
        term = 1
        for i, count in enumerate(content):
            if count:
                term *= r[i] ** count
        total += term
    return total


def schur_eval(mu: Partition, r: Spectrum) -> Fraction:
    """Schur polynomial s_mu evaluated at the spectrum r, exact.

    Jacobi-Trudi on integers: with D the lcm of the entries' denominators,
    s_mu(r) = det[h_{mu_i - i + j}(D r)] / D^|mu|, where the complete
    homogeneous values h_k come from h_k += x h_{k-1}, one entry x at a
    time.  Zero when mu has more rows than r has entries.
    """
    vals = [Fraction(x) for x in r]
    scale = lcm(*(v.denominator for v in vals))
    size = len(mu)
    h = [1] + [0] * (mu[0] + size - 1 if size else 0)
    for v in vals:
        x = v.numerator * (scale // v.denominator)
        for k in range(1, len(h)):
            h[k] += x * h[k - 1]
    jt = [[h[p] if (p := mu[i] - i + j) >= 0 else 0 for j in range(size)] for i in range(size)]
    return Fraction(_det(jt), scale ** sum(mu))


def shifted_schur_eval(mu: Partition, lam: Partition, d: int) -> Fraction:
    """Shifted Schur function s*_mu(lam), exact.

    d may be any integer >= the row counts of both diagrams; the value does
    not depend on the choice.
    """
    if d < rows(mu) or d < rows(lam):
        raise ValueError("d must cover the rows of both diagrams")
    a = [lam[i] + d - 1 - i if i < len(lam) else d - 1 - i for i in range(d)]
    m = [mu[j] + d - 1 - j if j < len(mu) else d - 1 - j for j in range(d)]
    num = _det([[falling_factorial(ai, mj) for mj in m] for ai in a])
    den = _det([[falling_factorial(ai, d - 1 - j) for j in range(d)] for ai in a])
    return Fraction(num, den)
