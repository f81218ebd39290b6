"""Dense construction of the actual operators on (C^d)^(x n), at desk scale.

Everything the weight calculus asserts algebraically is rebuilt here as a
literal matrix and re-measured: permutation operators, duality-block
projectors, single-irrep projectors from standard tableaux, both partial
traces, the permutation average, the duality-block weights and the trace
norm, the one float result (`_eigenvalues`, which `trace_norm` and
`verify_general_dual` read, is the only eigensolve).

Operators are stored as an integer matrix (numpy object dtype, so entries
are unbounded Python ints) times one global Fraction.  Every operator this
module constructs is real symmetric in the computational product basis with
rational entries, so exact comparisons are just integer comparisons.

Every operator is constructed the same way, before any measurement acts
on it: first as an element of the integer group algebra Z[S_n] (a
{permutation: int} dict with one common denominator), then represented on
(C^d)^(x n) by scattering each coefficient into one matrix through the
permutation's index map.  Work that depends only on the group (the
character class sums of `_class_sum`, Jucys-Murphy products) therefore costs
n!-sized dict arithmetic, never d^n-sided matrix products.  Products of
operators (`@`) run in int64 whenever a magnitude bound proves every partial
sum stays below 2^63 (hence exact), with an object dtype fallback otherwise.

Measurements build no operators.  Every index a construction or a
measurement reads comes from the digits of the combined indices
np.arange(d^n): the permutation index maps enc(pi . x) of `_index_maps`
(the scatter and the block weights, which are permutation traces summed
by class) or the S_n-orbit labels of index pairs (the permutation
average).  Both partial traces read no index at all: they sum diagonals
of reshaped views of the matrix itself.  An operator carries only
(n, d); a bipartite split (p, q) is passed to the inner trace
explicitly.  Every construction refuses a side d^n above the run's size
cap (`errors.size_cap`) before any work.

Basis conventions, fixed and relied on by all index bookkeeping:
* combined indices are base-d numerals with factor 1 as the most
  significant digit;
* a bipartite factor C^p (x) C^q uses x = i*q + j with i the C^p index,
  so the C^p part is the major digit;
* permutations are tuples of 0-based images and multiply as maps,
  (a b)(i) = a(b(i)), so that P(a) @ P(b) = P(a b).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations
from math import comb, factorial, gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator

import numpy as np

from .characters import character_row, dim_sym, dim_unitary
from .errors import ConsistencyError, SizeCapError, current_size_cap
from .partitions import (
    Partition,
    Tableau,
    _size,
    as_partition,
    check_standard_tableau,
    partitions_of,
    tableau_shape,
)
from .symfunc import _is_psd
from .werner import WernerWeights, definetti_bound_dual

_SCATTER_CELLS = 2**16  # matrix cells scattered per batch of terms


def _check_cap(d: int, n: int) -> int:
    """The local dimension d read by partitions._size, after refusing a
    matrix side d^n above the cap."""
    d = _size(d, "d")
    if d**n > (cap := current_size_cap()):
        raise SizeCapError(f"matrix side {d**n} exceeds the size cap {cap}")
    return d


def _imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer object matrices, in int64 when a magnitude
    bound keeps every partial sum below 2^63; Python ints otherwise."""
    try:
        ai, bi = a.astype(np.int64), b.astype(np.int64)
    except OverflowError:
        return a.dot(b)
    # max(max, -min) in Python ints: abs would wrap -2^63 back to itself
    amax = max(int(ai.max(initial=0)), -int(ai.min(initial=0)))
    bmax = max(int(bi.max(initial=0)), -int(bi.min(initial=0)))
    if a.shape[1] * amax * bmax < 2**63:
        return (ai @ bi).astype(object)  # object entries are Python ints
    return a.dot(b)


class DenseOperator:
    """value = scale * mat, on n factors of dimension base each.

    mat must hold integers: an integer dtype is converted to object dtype
    (Python ints, so no sum or product wraps), and any other dtype but
    object raises ValueError, since a float entry would be truncated.
    Object entries are not checked one by one; every construction here
    builds them from Python ints.
    """

    def __init__(self, mat: np.ndarray, scale: Fraction, n: int, base: int):
        if mat.dtype.kind in "iu":
            mat = mat.astype(object)
        elif mat.dtype != object:
            raise ValueError(f"matrix dtype must be integer or object, not {mat.dtype}")
        self.scale = Fraction(scale)
        if self.scale == 0:  # stored as zeros over scale 1, so _aligned never divides by 0
            mat, self.scale = np.zeros(mat.shape, dtype=object), Fraction(1)
        self.mat = mat
        self.n = n
        self.base = base
        if mat.shape != (base**n, base**n):
            raise ValueError("matrix shape does not match the factor metadata")

    @property
    def dim(self) -> int:
        return self.base**self.n

    def _aligned(self, other: "DenseOperator") -> tuple[np.ndarray, np.ndarray, Fraction]:
        ratio = self.scale / other.scale
        return (self.mat * ratio.numerator,
                other.mat * ratio.denominator,
                other.scale / ratio.denominator)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if (self.n, self.base) != (other.n, other.base):
            raise ValueError("operators live on different spaces")
        a, b, s = self._aligned(other)
        return DenseOperator(a + b, s, self.n, self.base)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return self + (other * -1)

    def __mul__(self, c) -> "DenseOperator":
        return DenseOperator(self.mat, self.scale * Fraction(c), self.n, self.base)

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if (self.n, self.base) != (other.n, other.base):
            raise ValueError("operators live on different spaces")
        return DenseOperator(_imatmul(self.mat, other.mat), self.scale * other.scale,
                             self.n, self.base)

    def trace(self) -> Fraction:
        return self.scale * int(np.trace(self.mat))

    def is_symmetric(self) -> bool:
        return bool((self.mat == self.mat.T).all())

    def same_as(self, other: "DenseOperator") -> bool:
        """Exact equality of the underlying rational matrices."""
        if (self.n, self.base) != (other.n, other.base):
            return False
        a, b, _ = self._aligned(other)
        return bool((a == b).all())

    def is_zero(self) -> bool:
        return bool((self.mat == 0).all())


@lru_cache(maxsize=64)
def _digits(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, digits) on (C^d)^(x n): the place values d^(n-1), ..., d, 1 and,
    in row x, the n digits of the combined index x.  Both read-only: they
    are cached, since every construction and measurement at (d, n) reads
    them.
    """
    w = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(d**n)[:, None] // w) % d
    w.flags.writeable = digits.flags.writeable = False
    return w, digits


def _index_maps(items: Iterable[tuple[tuple[int, ...], object]], d: int,
                n: int) -> Iterator[tuple[list, np.ndarray]]:
    """The permutation index maps of (pi, value) items, in batches.

    Each batch of at most _SCATTER_CELLS cells yields its values and an
    array with one row per pi: enc(pi . x) for every combined index x,
    where (pi . x)[pi(i)] = x[i].
    """
    dim = d**n
    w, digits = _digits(d, n)
    digits_t = digits.T  # column x holds x's n digits
    items = iter(items)
    while chunk := list(islice(items, max(1, _SCATTER_CELLS // dim))):
        perms = np.array([pi for pi, _ in chunk], dtype=np.int64).reshape(len(chunk), n)
        yield [v for _, v in chunk], w[perms] @ digits_t


def cycle_type(pi: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as a tuple of 0-based images."""
    seen = [False] * len(pi)
    lengths = []
    for start in range(len(pi)):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = pi[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# --- the integer group algebra Z[S_n] --------------------------------------

_Element = dict[tuple[int, ...], int]


def _multiply(a: _Element, b: _Element) -> _Element:
    """Product in Z[S_n]: sum of a_g b_h (g h), with (g h)(i) = g(h(i))."""
    out: _Element = {}
    get = out.get
    for h, y in b.items():
        compose = itemgetter(*h) if len(h) > 1 else tuple  # S_1 is trivial
        for g, x in a.items():
            gh = compose(g)
            out[gh] = get(gh, 0) + x * y
    return {g: c for g, c in out.items() if c}


def _represent(terms: Iterable[tuple[tuple[int, ...], int]], d: int, n: int,
               denominator: int = 1) -> DenseOperator:
    """The operator (1/denominator) sum_pi c_pi P(pi) on (C^d)^(x n).

    terms are the (pi, c_pi) items of a Z[S_n] element, read in batches.
    P(pi) has a 1 at (enc(pi . x), x) for every combined index x, so each
    coefficient lands in d^n cells of one matrix.
    """
    d = _check_cap(d, n)
    dim = d**n
    cols = np.arange(dim)
    acc = np.zeros(dim * dim, dtype=object)
    for values, targets in _index_maps(terms, d, n):
        coeffs = np.empty(len(values), dtype=object)
        coeffs[:] = values
        np.add.at(acc, (targets * dim + cols).ravel(), np.repeat(coeffs, dim))
    return DenseOperator(acc.reshape(dim, dim), Fraction(1, denominator), n, d)


def _class_sum(units: dict[Partition, Fraction], d: int, n: int) -> DenseOperator:
    """The central element sum_mu units[mu] sum_pi chi^mu(pi) pi on (C^d)^(x n),
    exact (no units: zero).  The one place class rationals are formed, after the
    cap check, over their lcm; `_eigenvalues` is the oracle's one float eigensolve."""
    d = _check_cap(d, n)
    coeffs = [Fraction(0)] * len(partitions_of(n))
    for mu, u in units.items():
        coeffs = [c + u * x for c, x in zip(coeffs, character_row(mu))]
    den = lcm(*(c.denominator for c in coeffs))
    values = {alpha: int(c * den) for alpha, c in zip(partitions_of(n), coeffs)}
    terms = ((pi, values[cycle_type(pi)]) for pi in permutations(range(n)))
    return _represent(((pi, c) for pi, c in terms if c), d, n, den)


def identity_operator(n: int, d: int) -> DenseOperator:
    n = _size(n, "n", 0)
    return _represent([(tuple(range(n)), 1)], d, n)


def permutation_operator(pi: tuple[int, ...], d: int) -> DenseOperator:
    """The 0/1 operator permuting the tensor factors by pi; trace d^c(pi)."""
    n = len(pi)
    if sorted(pi) != list(range(n)):
        raise ValueError(f"{pi} is not a permutation of 0..{n - 1}")
    return _represent([(tuple(pi), 1)], d, n)


def schur_weyl_projector(lam: Partition, d: int) -> DenseOperator:
    """Projector onto the duality block of lambda: (f/n!) sum_pi chi(pi) pi.

    Zero when lambda has more than d rows.  The family over Par(n, d) is a
    complete orthogonal resolution of the identity with traces e^d f.
    """
    lam = as_partition(lam)
    n = sum(lam)
    return _class_sum({lam: Fraction(dim_sym(lam), factorial(n))}, d, n)


def _contents(t: Tableau) -> dict[int, int]:
    """entry k -> column - row of its box."""
    return {v: c - r for r, row in enumerate(t) for c, v in enumerate(row)}


def _jucys_murphy_idempotent(t: Tableau) -> tuple[_Element, int]:
    """The Gelfand-Tsetlin idempotent of t in Z[S_n], with its denominator.

    E_t = prod_k prod_c (L_k - c) / (c_k - c), where L_k = sum_{i<k} (i k)
    are the Jucys-Murphy elements, c_k is the content of the box holding k
    and c runs over the other addable contents of the shape filled by
    1..k-1: on the image of the previous factors those are the only other
    eigenvalues L_k takes (Okounkov-Vershik).  The product is multiplied out
    with integer coefficients, divided through by their common gcd after
    each k.
    """
    n = sum(len(row) for row in t)
    contents = _contents(t)
    ident = tuple(range(n))
    elem: _Element = {ident: 1}
    denom = 1
    for k in range(2, n + 1):
        mu = [sum(v < k for v in row) for row in t] + [0]  # shape filled by 1..k-1
        addable = [mu[r] - r for r in range(len(mu)) if r == 0 or mu[r - 1] > mu[r]]
        ck = contents[k]
        lk = {}
        for i in range(k - 1):
            swap = list(ident)
            swap[i], swap[k - 1] = k - 1, i
            lk[tuple(swap)] = 1
        for c in addable:
            if c != ck:
                elem = _multiply(elem, {**lk, ident: -c} if c else lk)
                denom *= ck - c
        g = gcd(denom, *elem.values())
        elem = {pi: x // g for pi, x in elem.items()}
        denom //= g
    return elem, denom


def _tableau_operator(t: Tableau, p: int, q: int) -> DenseOperator:
    """E_t on ((C^p)(x)(C^q))^(x n) with every C^q traced out, represented on
    (C^p)^(x n) over the idempotent's own denominator; at q = 1, the tableau
    projector itself.  Every tableau operator is built here.

    On (C^p (x) C^q)^(x n), P(pi) = P_p(pi) (x) P_q(pi) and tr P_q(pi) =
    q^c(pi), with c(pi) the number of cycles, so tracing every C^q from
    E_t = sum_pi c_pi pi leaves sum_pi c_pi q^c(pi) P_p(pi), taken in Z[S_n]
    with no (pq)^n-sided matrix.  The dense `partial_trace_inner` is its oracle.
    """
    check_standard_tableau(t)
    n = sum(tableau_shape(t))
    p = _check_cap(p, n)  # before any group-algebra work
    elem, denom = _jucys_murphy_idempotent(t)
    if q > 1:
        elem = {pi: c * q ** len(cycle_type(pi)) for pi, c in elem.items()}
    return _represent(elem.items(), p, n, denom)


def young_projector(t: Tableau, d: int) -> DenseOperator:
    """Orthogonal projector onto a single unitary irrep selected by the tableau.

    The representation of the Gelfand-Tsetlin idempotent E_t of Z[S_n]:
    the joint spectral projector of the commuting Jucys-Murphy elements
    L_k = sum_{i<k} (i k) at the eigenvalue vector given by the box
    contents of t, computed in the n!-dimensional algebra and represented
    once.  E_t is fixed by pi -> pi^{-1} and the content vector singles out
    one copy of the irrep of shape(t), so the result is an exact rational
    symmetric projector with trace e^d_shape (the zero operator when the
    shape has more than d rows).
    """
    return _tableau_operator(t, d, 1)


# --- traces and averages ---------------------------------------------------


def partial_trace_subsystems(m: DenseOperator, keep: int) -> DenseOperator:
    """Trace out the last n-keep factors; the total trace is preserved.
    keep = 0 is the full trace, a 1 x 1 operator."""
    keep = _size(keep, "keep", 0)
    if keep > m.n:
        raise ValueError(f"keep must be in 0..{m.n}")
    kept, traced = m.base**keep, m.base ** (m.n - keep)
    out = m.mat.reshape(kept, traced, kept, traced).trace(axis1=1, axis2=3)
    return DenseOperator(out, m.scale, keep, m.base)


def partial_trace_inner(m: DenseOperator, p: int, q: int) -> DenseOperator:
    """Trace out the C^q half of every factor, landing on (C^p)^(x n).

    The independent dense oracle of `_tableau_operator`, which traces in
    the group algebra before any representation.  Each factor index is
    i*q + j with i its C^p digit, so the matrix is viewed with the axes
    (i_1, j_1, ..., i_n, j_n) on each side.  After k diagonals j_(k+1) sits
    at axis k+1 and its column twin at axis 2n+1; the n diagonal axes are
    appended last and summed.
    """
    p, q = _size(p, "p and q", plural=True), _size(q, "p and q", plural=True)
    if p * q != m.base:
        raise ValueError(f"factor dimension {m.base} is not {p}*{q}")
    n = m.n
    view = m.mat.reshape((p, q) * 2 * n)
    for k in range(n):
        view = view.diagonal(axis1=k + 1, axis2=2 * n + 1)
    # asarray: at n = 0 the view is 0-d and its sum a scalar
    out = np.asarray(view.sum(axis=tuple(range(2 * n, 3 * n))), m.mat.dtype)
    return DenseOperator(out.reshape(p**n, p**n), m.scale, n, p)


def symmetric_average(m: DenseOperator) -> DenseOperator:
    """Average of pi M pi^{-1} over all n! factor permutations.

    pi M pi^{-1} relabels M[x, y] as M[pi . x, pi . y], so the sum over the
    group at (x, y) is the size of the stabiliser of the index pair times
    the sum of M over its S_n-orbit.  The orbit is labelled by the sorted
    digit pairs (x_i, y_i), and the stabiliser size is n!/|orbit|, the
    orbit's size being the count of its label.  That is d^(2n) additions,
    not n! d^(2n).
    """
    n, d, dim = m.n, m.base, m.dim
    w, digits = _digits(d, n)
    labels = np.empty((dim, dim), dtype=np.int64)
    step = max(1, _SCATTER_CELLS // (dim * max(n, 1)))  # n = 0: one cell, no digits
    for start in range(0, dim, step):
        pairs = np.sort(digits[start:start + step, None, :] * d + digits, axis=-1)
        labels[start:start + step] = pairs @ (w * w)  # base d^2 numeral of the sorted pairs
    _, index, sizes = np.unique(labels.ravel(), return_inverse=True, return_counts=True)
    sums = np.zeros(len(sizes), dtype=object)
    np.add.at(sums, index, m.mat.ravel())
    sums *= factorial(n) // sizes.astype(object)  # the stabiliser of each orbit
    return DenseOperator(sums[index].reshape(dim, dim), m.scale / factorial(n), n, d)


def _eigenvalues(m: DenseOperator) -> np.ndarray:
    """The float eigenvalues of a symmetric operator: the oracle's one eigensolve."""
    return np.linalg.eigvalsh(m.mat.astype(np.float64) * float(m.scale))


def trace_norm(m: DenseOperator) -> float:
    """Sum of absolute eigenvalues, from `_eigenvalues`."""
    if not m.is_symmetric():
        raise ValueError("trace norm here expects a symmetric operator")
    return float(np.abs(_eigenvalues(m)).sum())


def schur_weyl_weights(m: DenseOperator) -> dict[Partition, Fraction]:
    """Projection tr(P_mu m) of an operator onto the duality-block basis.

    When m is a symmetric Werner state these are exactly its weights; in
    general they are the block components of the twirl-symmetrized part.
    No projector is built: by linearity tr(P_mu m) is
    (f_mu/n!) sum_alpha chi^mu(alpha) T(alpha), where the permutation trace
    T(alpha) sums m[x, pi . x] over every x and every pi of cycle type alpha.
    """
    n, d = m.n, m.base
    cols = np.arange(m.dim)
    traces = dict.fromkeys(partitions_of(n), 0)  # class order, as in character_row
    typed = ((pi, cycle_type(pi)) for pi in permutations(range(n)))
    for alphas, targets in _index_maps(typed, d, n):
        for alpha, total in zip(alphas, m.mat[cols, targets].sum(axis=1)):
            traces[alpha] += total
    return {mu: m.scale * Fraction(dim_sym(mu), factorial(n))
            * sum(map(mul, character_row(mu), traces.values()))
            for mu in partitions_of(n, d)}


def werner_combination(w: WernerWeights) -> DenseOperator:
    """The literal operator sum_mu a_mu rho_mu on (C^d)^(x n).

    One class sum: rho_mu = (1/(e_mu n!)) sum_pi chi^mu(pi) pi, so the unit
    of mu is a_mu / (e_mu n!).
    """
    n, d = w.n, w.d
    return _class_sum({mu: Fraction(a) / (dim_unitary(mu, d) * factorial(n))
                       for mu, a in w.weights.items() if a}, d, n)


def _psd_above(m: DenseOperator, c: Fraction) -> bool:
    """Whether m - c I is positive semidefinite, exactly, for an operator m
    that commutes with U(d)^(x n).

    Such an operator is block diagonal by weight, the digit counts of the
    combined index; that is checked, and a violation raises
    ConsistencyError.  Every irrep with at most d rows occurs in the most
    balanced weight space w, since the Kostka number K_{nu w} is positive
    iff nu dominates w (Macdonald I.6), so m - c I is PSD iff its block on
    that one weight space is.  The block is scaled to integers and tested by
    fraction-free elimination.
    """
    n, d = m.n, m.base
    w, digits = _digits(d, n)
    labels = np.sort(digits, axis=1) @ w  # one label per weight
    if np.count_nonzero(m.mat[labels[:, None] != labels]):
        raise ConsistencyError("operator is not block diagonal by weight")
    balanced = np.repeat(np.arange(d), [n // d + (j < n % d) for j in range(d)]) @ w
    index = np.flatnonzero(labels == balanced)
    # m - c I = (m.scale / b) (b M - a I) with a / b = c / m.scale, b > 0
    shift = c / m.scale
    sign = 1 if m.scale > 0 else -1
    block = [[sign * shift.denominator * x for x in row]
             for row in m.mat[np.ix_(index, index)].tolist()]
    for i, row in enumerate(block):
        row[i] -= sign * shift.numerator
    return _is_psd(block)


def verify_general_dual(t: Tableau, p: int, q: int) -> dict:
    """Measure the inner-trace distance of a single-irrep state to fully mixed.

    rho is the tableau projector on ((C^p)(x)(C^q))^(x n) over its trace;
    every C^q is traced out in the group algebra, so only the p^n-sided
    state rho' is represented.  The verdict is exact: rho' - beta I/p^n is
    positive semidefinite for beta = f * C(q, n) * p^n / e^{pq}, and
    beta >= ((q-n+1)/q)^n.  With tr rho' = 1 these give
    rho' - I/p^n = (1 - beta)(sigma - I/p^n) for a state sigma, so the trace
    norm of rho' - I/p^n is at most 2(1 - beta), within the bound
    2 - 2((q-n+1)/q)^n.  delta, that norm as sum_i |lambda_i - 1/p^n| over
    the eigenvalues of rho' from `_eigenvalues` (the one float eigensolve),
    is the one float in the report and takes no part in the verdict.
    """
    p, q = _size(p, "p and q", plural=True), _size(q, "p and q", plural=True)
    shape = tableau_shape(t)
    n = sum(shape)
    bound = definetti_bound_dual(n, q)  # refuses q < n before any group-algebra work
    e = dim_unitary(shape, p * q)
    traced = _tableau_operator(t, p, q) * Fraction(1, e)
    mixed = Fraction(1, p**n)  # the eigenvalue of the fully mixed state
    delta = float(np.abs(_eigenvalues(traced) - float(mixed)).sum())
    beta = Fraction(dim_sym(shape) * comb(q, n) * p**n, e)
    psd = _psd_above(traced, beta * mixed)
    return {
        "shape": list(shape),
        "tableau": [list(r) for r in t],
        "p": p,
        "q": q,
        "delta": delta,
        "bound": float(bound),
        "beta": str(beta),
        "remainder_psd": psd,
        "pass": psd and beta >= Fraction(q - n + 1, q) ** n,
    }
