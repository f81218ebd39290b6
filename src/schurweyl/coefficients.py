"""Littlewood-Richardson and Kronecker coefficients, their branching sums,
and skew dimensions.

Each quantity comes with a genuinely independent second computation path
so that one can cross-validate the other:

* c^lambda_{mu nu}: a row-by-row count of lattice-word tableaux (primary)
  and an induced-character inner product over S_k x S_{n-k} (secondary).
* g_{lambda mu nu}: a row product, sum_alpha h_alpha chi^lambda(alpha)
  chi^mu(alpha) chi^nu(alpha) / n!, zipping the three memoised character
  rows with the class sizes, and memoised on the ordered triple by
  characters._kronecker, which clear_character_cache empties;
  validated against the LR coefficients by restriction to S_{n-k} x S_k
  (sum_{j<=k} g_{lambda mu (n-j,j)} = sum c^lambda_{ab} c^mu_{ab}, the
  check kronecker-restriction), a literal per-class sum of mn_character
  values in the tests, and the dense tensor oracle elsewhere.
* f^{lambda/mu}: Aitken's determinant, cross-checked by the brute-force
  standard-tableau count partitions.skew_standard_count.  No production
  path consumes dim_skew.  Its matrix and the subsystem trace's shifted
  Schur values come from the one kernel symfunc._skew_dets, of side
  min(rows, columns) of lambda and never a caller's local dimension, so
  comparing the two checks only the normaliser; dim_skew's docstring says
  what pins the determinant.
"""

from __future__ import annotations

from itertools import compress
from math import factorial, prod
from operator import sub

from .characters import _kronecker, character_row, dim_sym, dim_unitary
from .errors import ConsistencyError
from .partitions import (
    Partition,
    _size,
    as_partition,
    class_sizes,
    contains,
    partitions_of,
)
from .symfunc import _skew_dets


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

    The lattice condition also bounds the work.  A row can take only the
    values used in earlier rows and the first unused one: every later
    value has no room, so a state keeps the content of the used values
    only, and its ends up to the first unused value.  Values whose room is
    0 end where the value before them ends, so only the values with room
    branch.  The count is 0 before any row is filled unless mu and nu both
    fit inside lambda.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if sum(mu) + sum(nu) != sum(lam) or not contains(mu, lam) or not contains(nu, lam):
        return 0
    if not nu:
        return 1
    inner = mu + (0,) * (len(lam) - len(mu))
    # (content, ends): the count of each value used so far, and where the
    # entries <= v end in the row above, for v = 0..len(content); cells of mu
    # count as 0, and the top row has no row above
    states = {((), (lam[0],)): 1}
    for length, start in zip(lam, inner):
        merged: dict[tuple, int] = {}
        for (content, above), ways in states.items():
            # how many of each value the row may take, and the values with room
            rooms = list(map(sub, map(min, nu, (nu[0],) + content), content + (0,)))
            places = list(compress(range(len(rooms)), rooms))
            fills, least = [(start,)], length - sum(rooms)
            for v in places:
                room = rooms[v]
                least += room  # the end the later values can still fill the row from
                fills = [ends + (end,) for ends in fills
                         for end in range(max(ends[-1], least),
                                          min(length, above[v], ends[-1] + room) + 1)]
            for ends in fills:
                grown, full, last, done = list(content), [], start, 0
                for v, end in zip(places, ends[1:]):
                    full += (last,) * (v + 1 - done)  # values without room end with the one before
                    done, count, last = v + 1, end - last, end
                    if v < len(grown):
                        grown[v] += count
                    elif count:
                        grown.append(count)
                full += (last,) * (len(grown) + 1 - done)
                key = (tuple(grown), tuple(full))
                merged[key] = merged.get(key, 0) + ways
        states = merged
    return sum(states.values())


def littlewood_richardson_char(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lambda_{mu nu} as the inner product of the restricted character with
    chi^mu x chi^nu over S_k x S_{n-k}.  Independent of the tableau path.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
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
    class-ordered character rows with the class sizes, memoised by
    characters._kronecker on the ordered triple.
    """
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("Kronecker coefficients need equal box counts")
    return _kronecker(lam, mu, nu, n)


def branching_sum_lr(lam: Partition, mu: Partition, d: int) -> int:
    """sum over nu in Par(|lambda|-|mu|, d) of c^lambda_{mu nu} f_nu.

    The independent oracle of the shared factorial determinant: the check
    inner-sum-subsystem holds it, f^{lambda/mu} at d >= rows(lambda), to
    shifted_schur_eval, dim_skew and the standard-tableau count.  Only the
    test test_trace_out_sym_matches_the_coefficient_sum holds
    werner.trace_out_sym's normaliser to it.
    """
    lam, mu, d = as_partition(lam), as_partition(mu), _size(d, "d")
    m = sum(lam) - sum(mu)
    if m < 0:
        return 0
    return sum(
        c * dim_sym(nu)
        for nu in partitions_of(m, d)
        if (c := littlewood_richardson(lam, mu, nu))
    )


def branching_sum_kron(lam: Partition, mu: Partition, q: int) -> int:
    """sum over nu in Par(n, q) of g_{lambda mu nu} e^q_nu.

    The independent oracle of werner.character_polynomial, through the
    check inner-sum-inner-trace: n! times this sum is its value at q.  It is
    also the oracle of werner.dual_trace, through the check
    dual-trace-paths: a_mu = e^p_mu * this sum / e^{pq}_lam.
    """
    lam, mu, q = as_partition(lam), as_partition(mu), _size(q, "q")
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
    factorial a_i (a_i - 1) ... (a_i - b_j + 1) with b_j = mu_j - j + l - 1:
    the determinant symfunc._skew_dets builds for shifted_schur_eval and
    werner.trace_out_sym as well.  It conjugates a diagram with more rows
    than columns, which leaves the count unchanged and keeps the side at
    min(rows, columns) <= sqrt(|lam|).  Exact for diagrams with thousands
    of boxes; 0 unless inner fits inside outer.  The normaliser
    N!/prod a_i! is this function's own half; the shifted Schur value
    divides the same determinant by prod_{i<j} (a_i - a_j), so comparing
    the two checks the normalisers only.  The determinant is pinned by the
    standard-tableau count partitions.skew_standard_count on small diagrams
    and, at thousands of boxes, by the hook-length, restriction-rule and
    box-removal tests.
    """
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(inner, outer):
        return 0
    (det,), a = _skew_dets(outer, (inner,))
    value, rem = divmod(factorial(sum(outer) - sum(inner)) * det, prod(factorial(ai) for ai in a))
    if rem or value < 1:
        raise ConsistencyError(f"Aitken determinant for {outer}/{inner} is not a positive integer")
    return value
