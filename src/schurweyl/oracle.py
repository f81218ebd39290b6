"""Dense construction of the actual operators on (C^d)^(x n), at desk scale.

Everything the weight calculus asserts algebraically is rebuilt here as a
literal matrix and re-measured: permutation operators, duality-block
projectors, single-irrep projectors from standard tableaux, both partial
traces, the permutation average, the duality-block weights and the trace
norm.

Operators are stored as an integer matrix (numpy object dtype, so entries
are unbounded Python ints) times one global Fraction.  Every operator this
module constructs is real symmetric in the computational product basis with
rational entries, so exact comparisons are just integer comparisons.

Every operator is constructed the same way, before any measurement acts
on it: first as an element of the integer group algebra Z[S_n] (a
{permutation: int} dict with one common denominator), then represented on
(C^d)^(x n) by scattering each coefficient into one matrix through the
permutation's index map.  Work that depends only on the group (character
class sums, Jucys-Murphy products) therefore costs n!-sized dict
arithmetic, never d^n-sided matrix products.  Products of operators (`@`)
still run through float64 BLAS whenever a magnitude bound proves every
intermediate integer stays below 2^53 (hence exact), with an object dtype
fallback otherwise.

Measurements build no operators.  Every index a construction or a
measurement reads comes from the digits of the combined indices
np.arange(d^n): the permutation index maps enc(pi . x) of `_index_maps`
(the scatter and the block weights, which are permutation traces summed
by class), a (kept x traced) reshaping (both partial traces), or the
S_n-orbit labels of index pairs (the permutation average).  An operator
carries only (n, d); a bipartite split (p, q) is passed to the inner trace
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
from itertools import islice, permutations
from math import comb, factorial, gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .characters import dim_sym, dim_unitary, mn_character
from .errors import SizeCapError, current_size_cap
from .partitions import Partition, as_partition, partitions_of
from .werner import WernerWeights, definetti_bound_dual

_EXACT_FLOAT = float(2**53)
_SCATTER_CELLS = 2**16  # matrix cells scattered per batch of terms
_SLACK = 1e-7  # slack on float inequality assertions; asserted gaps are >= 1e-3


def _check_cap(d: int, n: int) -> None:
    """Reject a local dimension below 1, then a matrix side d^n above the cap."""
    if d < 1:
        raise ValueError("d must be positive")
    if d**n > (cap := current_size_cap()):
        raise SizeCapError(f"matrix side {d**n} exceeds the size cap {cap}")


def _int_object(mat: np.ndarray) -> np.ndarray:
    # via tolist so entries are Python ints, not overflow-prone numpy scalars
    return np.array(np.rint(mat).astype(np.int64).tolist(), dtype=object)


def _imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer object matrices, BLAS-accelerated when safe."""
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    amax, bmax = np.abs(af).max(initial=0.0), np.abs(bf).max(initial=0.0)
    if amax < _EXACT_FLOAT and bmax < _EXACT_FLOAT and a.shape[1] * amax * bmax < _EXACT_FLOAT:
        return _int_object(af @ bf)
    return a.dot(b)


class DenseOperator:
    """value = scale * mat, on n factors of dimension base each."""

    def __init__(self, mat: np.ndarray, scale: Fraction, n: int, base: int):
        self.mat = mat
        self.scale = Fraction(scale)
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
        c = Fraction(c)
        if c == 0:
            return DenseOperator(np.zeros((self.dim, self.dim), dtype=object),
                                 Fraction(1), self.n, self.base)
        return DenseOperator(self.mat, self.scale * c, self.n, self.base)

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

    def to_float(self) -> np.ndarray:
        return self.mat.astype(np.float64) * float(self.scale)


def _index_maps(items: Iterable[tuple[tuple[int, ...], object]], d: int,
                n: int) -> Iterator[tuple[list, np.ndarray]]:
    """The permutation index maps of (pi, value) items, in batches.

    Each batch of at most _SCATTER_CELLS cells yields its values and an
    array with one row per pi: enc(pi . x) for every combined index x,
    where (pi . x)[pi(i)] = x[i].
    """
    dim = d**n
    w = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits_t = ((np.arange(dim)[:, None] // w) % d).T  # column x holds x's n digits
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
    _check_cap(d, n)
    dim = d**n
    cols = np.arange(dim)
    acc = np.zeros(dim * dim, dtype=object)
    for values, targets in _index_maps(terms, d, n):
        coeffs = np.empty(len(values), dtype=object)
        coeffs[:] = values
        np.add.at(acc, (targets * dim + cols).ravel(), np.repeat(coeffs, dim))
    return DenseOperator(acc.reshape(dim, dim), Fraction(1, denominator), n, d)


def _class_sum(values: dict[Partition, int], n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Items of the central element sum_pi values[cycle type of pi] pi."""
    for pi in permutations(range(n)):
        c = values[cycle_type(pi)]
        if c:
            yield pi, c


def identity_operator(n: int, d: int) -> DenseOperator:
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
    _check_cap(d, n)  # before any group-algebra work
    f, den = dim_sym(lam), factorial(n)
    g = gcd(f, den)
    chi = {alpha: f // g * mn_character(lam, alpha) for alpha in partitions_of(n)}
    return _represent(_class_sum(chi, n), d, n, den // g)


# --- standard tableaux ----------------------------------------------------

Tableau = tuple[tuple[int, ...], ...]


def standard_tableaux(shape: Partition) -> Iterator[Tableau]:
    """All standard fillings of `shape` with 1..n, deterministic order."""
    shape = as_partition(shape)
    n = sum(shape)
    grid = [[0] * r for r in shape]

    def place(k: int) -> Iterator[Tableau]:
        if k > n:
            yield tuple(tuple(row) for row in grid)
            return
        fill_len = [sum(1 for v in row if v) for row in grid]
        for r in range(len(shape)):
            c = fill_len[r]
            if c >= shape[r]:
                continue
            if r > 0 and fill_len[r - 1] <= c:
                continue
            grid[r][c] = k
            yield from place(k + 1)
            grid[r][c] = 0

    yield from place(1)


def first_standard_tableau(shape: Partition) -> Tableau:
    """The row-reading filling: 1..n left to right, top to bottom."""
    shape = as_partition(shape)
    out, k = [], 1
    for r in shape:
        out.append(tuple(range(k, k + r)))
        k += r
    return tuple(out)


def tableau_shape(t: Tableau) -> Partition:
    return as_partition(len(row) for row in t)


def check_standard_tableau(t: Tableau) -> None:
    shape = tableau_shape(t)
    n = sum(shape)
    seen = sorted(v for row in t for v in row)
    if seen != list(range(1, n + 1)):
        raise ValueError("filling must use 1..n exactly once")
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= v:
                raise ValueError("rows must increase to the right")
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= v:
                raise ValueError("columns must increase downwards")


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
    check_standard_tableau(t)
    n = sum(tableau_shape(t))
    _check_cap(d, n)  # before any group-algebra work
    elem, denom = _jucys_murphy_idempotent(t)
    return _represent(elem.items(), d, n, denom)


# --- traces and averages ---------------------------------------------------


def _trace_blocks(m: DenseOperator, table: np.ndarray, n: int, base: int) -> DenseOperator:
    """Sum over the traced index t of the diagonal blocks m[table[:, t], table[:, t]].

    table[k, t] is the combined index of kept index k and traced index t.
    Blocks are gathered in batches of at most _SCATTER_CELLS cells; the
    result lives on n factors of dimension base.
    """
    kept, traced = table.shape
    out = np.zeros((kept, kept), dtype=object)
    step = max(1, _SCATTER_CELLS // kept**2)
    for start in range(0, traced, step):
        batch = table[:, start:start + step].T
        out += m.mat[batch[:, :, None], batch[:, None, :]].sum(axis=0)
    return DenseOperator(out, m.scale, n, base)


def partial_trace_subsystems(m: DenseOperator, keep: int) -> DenseOperator:
    """Trace out the last n-keep factors; the total trace is preserved."""
    if not 0 < keep <= m.n:
        raise ValueError(f"keep must be in 1..{m.n}")
    table = np.arange(m.dim).reshape(m.base**keep, m.base ** (m.n - keep))
    return _trace_blocks(m, table, keep, m.base)


def partial_trace_inner(m: DenseOperator, p: int, q: int) -> DenseOperator:
    """Trace out the C^q half of every factor, landing on (C^p)^(x n).

    Each factor index is i*q + j with i its C^p digit, so the index table
    has the axes (i_1, j_1, ..., i_n, j_n), reordered to put every i first.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if p * q != m.base:
        raise ValueError(f"factor dimension {m.base} is not {p}*{q}")
    n = m.n
    axes = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    table = np.arange(m.dim).reshape((p, q) * n).transpose(axes).reshape(p**n, q**n)
    return _trace_blocks(m, table, n, p)


def symmetric_average(m: DenseOperator) -> DenseOperator:
    """Average of pi M pi^{-1} over all n! factor permutations.

    pi M pi^{-1} relabels M[x, y] as M[pi . x, pi . y], so the sum over the
    group at (x, y) is the size of the stabiliser of the index pair times
    the sum of M over its S_n-orbit.  The orbit is labelled by the sorted
    digit pairs (x_i, y_i); the stabiliser size is the product of the
    factorials of their multiplicities.  That is d^(2n) additions, not
    n! d^(2n).
    """
    n, d, dim = m.n, m.base, m.dim
    w = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(dim)[:, None] // w) % d  # row x holds x's n digits
    labels = np.empty((dim, dim), dtype=np.int64)
    stabiliser = np.ones((dim, dim), dtype=np.int64)
    step = max(1, _SCATTER_CELLS // (dim * n))
    for start in range(0, dim, step):
        pairs = np.sort(digits[start:start + step, None, :] * d + digits, axis=-1)
        labels[start:start + step] = pairs @ (w * w)  # base d^2 numeral of the sorted pairs
        run = np.ones(pairs.shape[:2], dtype=np.int64)  # place of pair i in its run
        for i in range(1, n):
            run = np.where(pairs[..., i] == pairs[..., i - 1], run + 1, 1)
            stabiliser[start:start + step] *= run
    orbits, index = np.unique(labels.ravel(), return_inverse=True)
    sums = np.zeros(len(orbits), dtype=object)
    np.add.at(sums, index, m.mat.ravel())
    acc = sums[index].reshape(dim, dim) * stabiliser  # int64 is cast to Python ints
    return DenseOperator(acc, m.scale / factorial(n), n, d)


def trace_norm(m: DenseOperator) -> float:
    """Sum of absolute eigenvalues, via a float symmetric eigensolve."""
    if not m.is_symmetric():
        raise ValueError("trace norm here expects a symmetric operator")
    return float(np.abs(np.linalg.eigvalsh(m.to_float())).sum())


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
    traces = dict.fromkeys(partitions_of(n), 0)
    typed = ((pi, cycle_type(pi)) for pi in permutations(range(n)))
    for alphas, targets in _index_maps(typed, d, n):
        for alpha, total in zip(alphas, m.mat[cols, targets].sum(axis=1)):
            traces[alpha] += total
    return {mu: m.scale * Fraction(dim_sym(mu), factorial(n))
            * sum(mn_character(mu, alpha) * t for alpha, t in traces.items())
            for mu in partitions_of(n, d)}


def werner_combination(w: WernerWeights) -> DenseOperator:
    """The literal operator sum_mu a_mu rho_mu on (C^d)^(x n).

    One class sum: rho_mu = (1/(e_mu n!)) sum_pi chi^mu(pi) pi, so the
    coefficient of pi is sum_mu a_mu chi^mu(pi) / (e_mu n!).
    """
    n, d = w.n, w.d
    _check_cap(d, n)  # before any group-algebra work
    classes = partitions_of(n)
    coeff = {alpha: Fraction(0) for alpha in classes}
    for mu, a in w.weights.items():
        if a == 0:
            continue
        unit = Fraction(a) / (dim_unitary(mu, d) * factorial(n))
        for alpha in classes:
            coeff[alpha] += unit * mn_character(mu, alpha)
    den = lcm(*(c.denominator for c in coeff.values()))
    values = {alpha: int(c * den) for alpha, c in coeff.items()}
    return _represent(_class_sum(values, n), d, n, den)


def verify_general_dual(t: Tableau, p: int, q: int) -> dict:
    """Measure the inner-trace distance of a single-irrep state to fully mixed.

    Builds rho from the tableau projector on ((C^p)(x)(C^q))^(x n), traces
    out every C^q, and checks both the distance bound 2 - 2((q-n+1)/q)^n
    and positivity of the remainder after subtracting
    beta = f * C(q, n) * p^n / e^{pq} times the fully mixed state.
    """
    shape = tableau_shape(t)
    n = sum(shape)
    if q < n:
        raise ValueError(f"the bound needs q >= n, got q={q} < n={n}")
    e = dim_unitary(shape, p * q)
    if e == 0:
        raise ValueError(f"{shape} does not fit in {p * q} rows")
    rho = young_projector(t, p * q) * Fraction(1, e)
    traced = partial_trace_inner(rho, p, q)
    mixed = identity_operator(n, p) * Fraction(1, p**n)
    delta = trace_norm(traced - mixed)
    bound = definetti_bound_dual(n, q)
    beta = Fraction(dim_sym(shape) * comb(q, n) * p**n, e)
    residual = traced - mixed * beta
    min_eig = float(np.linalg.eigvalsh(residual.to_float()).min())
    ok = delta <= float(bound) + _SLACK and min_eig >= -_SLACK
    return {
        "shape": list(shape),
        "tableau": [list(r) for r in t],
        "p": p,
        "q": q,
        "delta": delta,
        "bound": float(bound),
        "beta": str(beta),
        "min_residual_eig": min_eig,
        "pass": ok,
    }
