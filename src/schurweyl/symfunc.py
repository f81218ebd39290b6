"""Schur polynomials at a spectrum and shifted Schur functions at a partition.

Every value is one integer determinant, taken by fraction-free Bareiss
elimination.  Ordinary Schur values use Jacobi-Trudi, det[h_{mu_i - i + j}],
on the spectrum scaled to integers, so repeated and zero entries need no
special case.  The semistandard-tableau monomial sum, swept shape by shape
over horizontal strips with no determinant, is kept only as the
independent oracle of schur_eval.

Shifted Schur values use the ratio of factorial determinants
det[(a_i) falling (mu_j + l - 1 - j)] / det[(a_i) falling (l - 1 - j)] with
a_i = lam_i + l - 1 - i over the l rows of lam (Okounkov-Olshanski, Shifted
Schur functions, q-alg/9605042).  Each row of the numerator is one running
product a_i (a_i - 1) ... up to the longest factorial.  Falling factorials
are a monic basis, so column operations reduce the denominator to the
Vandermonde determinant det[a_i^(l-1-j)] = prod_{i<j} (a_i - a_j), and
only the numerator is eliminated.  The normalization is pinned by the
exact identity
f_lam * s*_mu(lam) / (n falling k) = dim lam/mu, which the test suite
enforces rather than assumes.

One private kernel, _skew_dets, builds every factorial determinant:
shifted_schur_eval here, werner.trace_out_sym and coefficients.dim_skew
each call it once, for one mu or for a whole list of them over one table
of lam.  It conjugates lam and every mu when lam has more rows than
columns, which leaves f^{lam/mu}, f^lam and so s*_mu(lam) unchanged, so
each determinant has side min(rows, columns) of lam.  A mu with more rows
than that does not fit inside lam and gives 0.  A local dimension d only
labels the support Par(k, d) and is range-checked; it never sizes a table.

Both values are Fraction(numerator, denominator) over private integer
helpers (_integer_spectrum, _complete_homogeneous and _jacobi_trudi;
_skew_dets and _vandermonde), which the Werner maps in werner.py call
directly to build a whole weight vector over one denominator.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .partitions import Partition, _conjugate, _size, as_partition, rows

Spectrum = Sequence


def _bareiss_step(a: list[list[int]], col: int, prev: int) -> None:
    """One fraction-free Bareiss step (Math. Comp. 22, 1968), in place: with
    pivot a[col][col], each entry x right of col in a row below col becomes
    (x * pivot - row[col] * a[col][c]) / prev, prev being the previous pivot
    (1 before the first step).  Every division is exact, so entries stay
    integers.
    """
    top = a[col]
    pivot = top[col]
    for row in a[col + 1:]:
        lead = row[col]
        for c in range(col + 1, len(top)):
            row[c] = (row[c] * pivot - lead * top[c]) // prev


def _det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination.  Rows are
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
        _bareiss_step(a, col, prev)
        prev = a[col][col]
    return sign * prev


def _is_psd(m: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, exactly.

    Bareiss elimination on the diagonal pivots, which keeps the trailing
    block symmetric: while every earlier pivot is positive, the next one
    has the sign of the next Schur complement pivot.  A negative pivot
    fails; a zero pivot passes only with a zero row (otherwise a 2 x 2
    principal minor is negative), and then its step is skipped, which drops
    that row and column.
    """
    a = [list(row) for row in m]
    prev = 1
    for col in range(len(a)):
        pivot = a[col][col]
        if pivot < 0 or (pivot == 0 and any(a[col][col + 1:])):
            return False
        if pivot:
            _bareiss_step(a, col, prev)
            prev = pivot
    return True


def schur_eval_tableau(mu: Partition, r: Spectrum):
    """s_mu(r) as the monomial sum over semistandard tableaux, shape by shape.

    The independent oracle for schur_eval: no determinant, no Jacobi-Trudi.
    The boxes holding the largest entry of a semistandard tableau form a
    horizontal strip mu/nu, and the rest is a semistandard tableau of nu
    (Macdonald, Symmetric Functions, I.5.11).  So the sweep takes the
    entries x of r last first, sends each shape kappa to every nu with
    kappa_{i+1} <= nu_i <= kappa_i, times x^(|kappa| - |nu|), and merges
    equal shapes; s_mu(r) is the weight left on the empty shape.  A shape
    with more rows than entries still to place is dropped: it can never
    empty.
    """
    shapes = {as_partition(mu): 1}
    for left in reversed(range(len(r))):  # r[:left] is still to place
        x, merged = r[left], {}
        for kappa, weight in shapes.items():
            size = sum(kappa)
            for strip in product(*map(range, kappa[1:] + (0,), [k + 1 for k in kappa])):
                nu = tuple(filter(None, strip))  # only the last row can empty
                if len(nu) <= left:
                    merged[nu] = merged.get(nu, 0) + weight * x ** (size - sum(nu))
        shapes = merged
    return shapes.get((), 0)


def _integer_spectrum(r: Spectrum) -> tuple[list[int], int]:
    """The entries of r read exactly as Fraction(x), scaled to integers:
    (D r, D) with D the lcm of their denominators (1 for no entries)."""
    vals = [Fraction(x) for x in r]
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


def _complete_homogeneous(xs: list[int], top: int) -> list[int]:
    """h_0 .. h_top at the integers xs, by h_k += x h_{k-1}, one entry x at a time."""
    h = [1] + [0] * top
    for x in xs:
        for k in range(1, top + 1):
            h[k] += x * h[k - 1]
    return h


def _jacobi_trudi(h: list[int], mu: Partition) -> int:
    """det[h_{mu_i - i + j}], h listing the complete homogeneous values up to
    at least mu_1 + rows(mu) - 1: s_mu at the integers h was built from."""
    size = len(mu)
    return _det([[h[p] if (p := mu[i] - i + j) >= 0 else 0 for j in range(size)]
                 for i in range(size)])


def schur_eval(mu: Partition, r: Spectrum) -> Fraction:
    """Schur polynomial s_mu evaluated at the spectrum r, exact.

    Jacobi-Trudi on integers: with D the lcm of the entries' denominators,
    s_mu(r) = det[h_{mu_i - i + j}(D r)] / D^|mu|.  Zero when mu has more
    rows than r has entries.
    """
    mu = as_partition(mu)
    xs, scale = _integer_spectrum(r)
    h = _complete_homogeneous(xs, mu[0] + len(mu) - 1 if mu else 0)
    return Fraction(_jacobi_trudi(h, mu), scale ** sum(mu))


def _skew_dets(lam: Partition, mus: Sequence[Partition]) -> tuple[list[int], list[int]]:
    """The one builder of factorial determinants: for each mu,
    det[(a_i) falling (mu_j + l - 1 - j)] with a_i = lam_i + l - 1 - i over
    the l rows of lam, and the a_i.  lam and every mu are conjugated first
    when lam has more rows than columns (the side rule of the module
    docstring), so the a_i belong to lam'.  Every row of the matrix is read
    from one running product a_i (a_i - 1) ... that stops at the longest
    factorial the mus need.  A mu with more than l rows does not fit inside
    lam and gives 0.  Unchecked: canonical partitions.
    """
    if lam and len(lam) > lam[0]:
        lam, mus = _conjugate(lam), [_conjugate(mu) for mu in mus]
    size = len(lam)
    a = [part + size - 1 - i for i, part in enumerate(lam)]
    top = max((mu[0] for mu in mus if mu and len(mu) <= size), default=0) + size - 1
    table = []
    for ai in a:
        falling = [1]  # falling[t] = ai (ai - 1) ... (ai - t + 1)
        for t in range(top):
            falling.append(falling[-1] * (ai - t))
        table.append(falling)
    dets = []
    for mu in mus:
        m = [(mu[j] if j < len(mu) else 0) + size - 1 - j for j in range(size)]
        dets.append(_det([[row[mj] for mj in m] for row in table]) if len(mu) <= size else 0)
    return dets, a


def _vandermonde(a: list[int]) -> int:
    """prod_{i<j} (a_i - a_j): the factorial determinant det[(a_i) falling
    (l - 1 - j)], positive for the strictly decreasing a_i of _skew_dets."""
    return prod(ai - aj for i, ai in enumerate(a) for aj in a[i + 1:])


def shifted_schur_eval(mu: Partition, lam: Partition, d: int) -> Fraction:
    """Shifted Schur function s*_mu(lam), exact.

    d must be an integer >= the row counts of both diagrams, and only that
    is checked: the value does not depend on d, and the determinants have
    side min(rows, columns) of lam (_skew_dets), whatever d is.
    d = 0 with mu = lam = () gives 1.
    """
    mu, lam = as_partition(mu), as_partition(lam)
    _size(d, "d", max(rows(mu), rows(lam)))
    (num,), a = _skew_dets(lam, (mu,))
    return Fraction(num, _vandermonde(a))
