"""Symmetric Werner states as weight vectors, character polynomials and bounds.

A symmetric Werner state on n subsystems of local dimension d is a convex
combination of the normalized projectors rho_mu onto the duality blocks
labelled by mu in Par(n, d).  Because those projectors have orthogonal
supports, the whole calculus happens on the weight vectors: partial traces,
twirls, trace distances and the de Finetti style bounds all become exact
arithmetic over Par(n, d).

A vector is stored as integer numerators over one positive common
denominator, and WernerWeights.weights derives the reduced Fractions.  Each
map checks its arguments once, then builds its numerators from the
unchecked memoised internals of partitions, characters and symfunc, over
its own denominator:
* dual_trace: n! e^{pq}_lam;
* dual_twirl_cycle and fully_mixed: d^n;
* trace_out_sym: the Vandermonde product prod_{i<j} (a_i - a_j), over the
  l rows of lam or of its conjugate, whichever has fewer (the side rule of
  symfunc._skew_dets), a_i = lam_i + l - 1 - i, times (n falling k);
  the local dimension d only labels the support Par(k, d);
* twirl_power: D^k, D the lcm of the spectrum's denominators.
The sum check (ConsistencyError), total, is_state, equality and
trace_distance are then integer arithmetic, with no gcd per weight.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm, perm
from operator import mul

from .characters import _beta_set, _character_row, _dim_sym, _dim_unitary, _mn
from .errors import ConsistencyError
from .partitions import (
    Partition,
    _partitions,
    _size,
    as_cycle_type,
    as_partition,
    class_sizes,
    contains,
    rows,
)
from .symfunc import (
    Spectrum,
    _complete_homogeneous,
    _integer_spectrum,
    _jacobi_trudi,
    _skew_dets,
    _vandermonde,
)


class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, ascending powers."""

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "q" if power == 1 else f"q^{power}"
                body = var if mag == 1 else f"{mag}{var}"
            terms.append(sign + body)
        return "".join(terms)


class WernerWeights:
    """A weight vector over Par(n, d) in the normalized-projector basis.

    For states all weights are non-negative and sum to 1; symmetrised cycle
    operators reuse the same container with is_state() False.  Stored as
    integer numerators over one positive common denominator, so sums,
    comparisons and distances are integer arithmetic; `weights` derives the
    reduced Fractions.  Immutable attributes; equal vectors agree on every
    weight, and the hash is that of (n, d).  n >= 0 and d >= 1 are read as
    plain ints, keys are stored as canonical partitions of Par(n, d) and
    weights must be ints or Fractions; anything else raises ValueError.
    """

    __slots__ = ("n", "d", "_nums", "_den")

    def __init__(self, n: int, d: int, weights: dict[Partition, Fraction]):
        n, d = _size(n, "n", 0), _size(d, "d")
        canonical = {}
        for mu, w in weights.items():
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
                raise ValueError(f"weights must be ints or Fractions, got {w!r} at {mu}")
            canonical[as_partition(mu)] = Fraction(w)
        if len(canonical) < len(weights):
            raise ValueError("two keys name the same partition")
        for mu in canonical:
            if rows(mu) > d or sum(mu) != n:
                raise ValueError(f"{mu} is not in Par({n},{d})")
        den = lcm(*(w.denominator for w in canonical.values()))
        nums = {mu: w.numerator * (den // w.denominator) for mu, w in canonical.items()}
        _fill(self, n, d, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"WernerWeights(n={self.n!r}, d={self.d!r}, weights={self.weights!r})"

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    @property
    def weights(self) -> dict[Partition, Fraction]:
        """A fresh dict of the weights as reduced Fractions, in key order."""
        den = self._den
        return {mu: Fraction(a, den) for mu, a in self._nums.items()}

    def weight(self, mu: Partition) -> Fraction:
        return Fraction(self._nums.get(as_partition(mu), 0), self._den)

    def total(self) -> Fraction:
        return Fraction(sum(self._nums.values()), self._den)

    def is_state(self) -> bool:
        return min(self._nums.values(), default=0) >= 0 and sum(self._nums.values()) == self._den

    def as_json(self) -> dict:
        entries = [{"partition": list(mu), "num": w.numerator, "den": w.denominator}
                   for mu, w in self.weights.items()]
        return {"n": self.n, "d": self.d, "weights": entries}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WernerWeights):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and not any(_difference(self, other)[0])


def _fill(out: WernerWeights, n: int, d: int, nums: dict[Partition, int], den: int) -> None:
    for name, value in (("n", n), ("d", d), ("_nums", nums), ("_den", den)):
        object.__setattr__(out, name, value)


def _vector(n: int, d: int, nums: dict[Partition, int], den: int, total: int | None = None,
            error: str = "weights do not sum to 1") -> WernerWeights:
    """A weight vector from numerators over den > 0, keyed by Par(n, d) in
    enumeration order, with no key check.

    Raises ConsistencyError(error) unless the numerators sum to total
    (den by default: the weights sum to 1).
    """
    if sum(nums.values()) != (den if total is None else total):
        raise ConsistencyError(error)
    out = object.__new__(WernerWeights)
    _fill(out, n, d, nums, den)
    return out


def _difference(a: WernerWeights, b: WernerWeights) -> tuple[list[int], int]:
    """The numerators of a - b over the denominator a_den * b_den, on every key
    of either vector."""
    if (a.n, a.d) != (b.n, b.d):
        raise ValueError("weight vectors live on different (n, d)")
    an, bn, ad, bd = a._nums, b._nums, a._den, b._den
    return [an.get(k, 0) * bd - bn.get(k, 0) * ad for k in an.keys() | bn.keys()], ad * bd


def character_polynomial(lam: Partition, mu: Partition) -> IntPolynomial:
    """The degree-n polynomial sum_alpha h_alpha q^c(alpha) chi^lam chi^mu.

    Symmetric in (lam, mu); the constant term vanishes for n >= 1 because
    every cycle type has at least one cycle.  Not memoised: each consumer
    (chi-poly, qplus, table5, root_range) builds a polynomial once.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("character polynomial needs equal box counts")
    coeffs = [0] * (n + 1)
    for alpha, h, a, b in zip(_partitions(n, n), class_sizes(n),
                              _character_row(lam), _character_row(mu)):
        coeffs[rows(alpha)] += h * a * b
    return IntPolynomial(coeffs)


RootRange = namedtuple("RootRange", "q_minus q_plus roots")


def root_range(lam: Partition, mu: Partition) -> RootRange:
    """The contiguous integer window around 0 on which the polynomial vanishes.

    Returns (q_minus, q_plus, roots): the polynomial is positive for
    q >= q_plus, nonzero for q <= q_minus, and zero exactly on the integers
    strictly between.  Consistency of that structure is re-verified here and
    a violation raises ConsistencyError (it should be unreachable).
    """
    n = sum(lam)
    if n == 0:
        raise ValueError("root structure needs at least one box")
    poly = character_polynomial(lam, mu)
    q_plus = None
    for q in range(1, n + 1):
        v = poly(q)
        if v > 0:
            q_plus = q
            break
        if v != 0:
            raise ConsistencyError(f"negative value {v} at q={q} for {lam},{mu}")
    if q_plus is None:
        raise ConsistencyError(f"no positive value in 1..n for {lam},{mu}")
    for q in range(q_plus, n + 1):
        if poly(q) <= 0:
            raise ConsistencyError(f"positivity broken above q+ for {lam},{mu}")
    if q_plus > max(rows(lam), rows(mu)):
        raise ConsistencyError(f"q+ exceeds the row bound for {lam},{mu}")

    # the negative side mirrors the positive side of the conjugate pair:
    # chi^{lam'} = sgn chi^lam makes its polynomial (-1)^n poly(-q)
    sign = (-1) ** n
    q_minus = None
    for q in range(1, n + 1):
        if sign * poly(-q) > 0:
            q_minus = -q
            break
    if q_minus is None:
        raise ConsistencyError(f"no negative boundary for {lam},{mu}")
    for q in range(q_minus + 1, q_plus):
        if poly(q) != 0:
            raise ConsistencyError(f"root window not contiguous for {lam},{mu}")
    if poly(q_minus) == 0:
        raise ConsistencyError(f"boundary q-={q_minus} is itself a root for {lam},{mu}")
    return RootRange(q_minus, q_plus, list(range(q_minus + 1, q_plus)))


def trace_out_sym(lam: Partition, k: int, d: int) -> WernerWeights:
    """Weights of the state left after tracing out n-k of the n subsystems.

    a_mu = f_mu * (sum_nu c^lam_{mu nu} f_nu) / f_lam over mu in Par(k, d).
    The inner sum over f_lam is dim(lam/mu) / f_lam = s*_mu(lam) / (n falling k)
    (Okounkov-Olshanski, Shifted Schur functions, q-alg/9605042), so each
    weight is f_mu * s*_mu(lam) / (n falling k), with no integer of the
    size of n!.  One call of symfunc._skew_dets gives every numerator from
    one table of lam, of side min(rows, columns) of lam, so d only labels
    the support Par(k, d) and never sizes the work; the numerators share
    the denominator Vandermonde * (n falling k).  coefficients.dim_skew
    takes its matrix from the same kernel, so the large-size test against
    it checks the normaliser only.  The check inner-sum-subsystem ties the
    shared determinant, through shifted_schur_eval, to the literal
    coefficient sum and standard-tableau counts; a unit test ties this
    normaliser to the coefficient sum.
    """
    d = _size(d, "d")
    lam = as_partition(lam)
    n = sum(lam)
    if rows(lam) > d:
        raise ValueError(f"{lam} has more than {d} rows")
    k = _size(k, "k")
    if k > n:
        raise ValueError("k must be between 1 and n")
    keys = _partitions(k, d)
    dets, a = _skew_dets(lam, keys)
    return _vector(k, d, {mu: _dim_sym(mu) * det for mu, det in zip(keys, dets)},
                   _vandermonde(a) * perm(n, k))


def dual_trace(lam: Partition, p: int, q: int) -> WernerWeights:
    """Weights after tracing out the q-dimensional half of every subsystem.

    a_mu = e^p_mu * sum_alpha h_alpha q^c(alpha) chi^lam(alpha) chi^mu(alpha)
    / (n! e^{pq}_lam) over mu in Par(n, p): one row product per mu, each an
    integer numerator over the common n! e^{pq}_lam.  The check
    dual-trace-paths holds it to the Kronecker sum
    a_mu = e^p_mu sum_nu g_{lam mu nu} e^q_nu / e^{pq}_lam, which goes
    through Kronecker coefficients and the hook-content e^q, not q^c(alpha).
    """
    p, q = _size(p, "p and q", plural=True), _size(q, "p and q", plural=True)
    lam = as_partition(lam)
    n = sum(lam)
    if rows(lam) > p * q:
        raise ValueError(f"{lam} has more than {p * q} rows")
    row = [h * q ** rows(alpha) * chi
           for alpha, h, chi in zip(_partitions(n, n), class_sizes(n), _character_row(lam))]
    return _vector(n, p, {mu: _dim_unitary(mu, p) * sum(map(mul, row, _character_row(mu)))
                          for mu in _partitions(n, p)},
                   factorial(n) * _dim_unitary(lam, p * q))


def twirl_power(r: Spectrum, k: int) -> WernerWeights:
    """Weights of the unitarily twirled k-th power of a state with spectrum r.

    Entries are read exactly as Fraction(x) and must sum to exactly 1.  With
    D the lcm of their denominators, a_mu = f_mu s_mu(D r) / D^k: Jacobi-Trudi
    determinants over one table h_0 .. h_k of complete homogeneous values of
    D r.  A k-box mu reads no index beyond mu_1 + rows(mu) - 1 <= k, so the
    spectrum's length sizes no table.
    """
    k = _size(k, "k")
    xs, scale = _integer_spectrum(r)
    if any(x < 0 for x in xs):
        raise ValueError("spectrum entries must be non-negative")
    if sum(xs) != scale:
        raise ValueError("spectrum must sum to 1")
    h = _complete_homogeneous(xs, k)
    return _vector(k, len(xs), {mu: _dim_sym(mu) * _jacobi_trudi(h, mu)
                                for mu in _partitions(k, len(xs))}, scale**k)


def dual_twirl_cycle(alpha: Partition, d: int) -> WernerWeights:
    """The symmetrised cycle operator for cycle type alpha (cycle lengths in
    any order, as for mn_character), as weights.

    weight(mu) = e^d_mu chi^mu(alpha) / d^n, numerators over d^n.  Generally
    not a state: weights can be negative.  The weights sum to d^(c(alpha) - n),
    the trace of the averaged, normalized permutation operator; for
    alpha = (1^n) this is the fully mixed state.
    """
    d = _size(d, "d")
    alpha = as_cycle_type(alpha)
    n = sum(alpha)
    return _vector(n, d, {mu: _dim_unitary(mu, d) * _mn(_beta_set(mu), alpha)
                          for mu in _partitions(n, d)},
                   d**n, d ** rows(alpha), "cycle weights do not sum to d^(c - n)")


def fully_mixed(n: int, d: int) -> WernerWeights:
    """Weights of the fully mixed state I / d^n: the cycle operator of the identity."""
    return dual_twirl_cycle((1,) * _size(n, "n"), d)


def trace_distance(a: WernerWeights, b: WernerWeights) -> Fraction:
    """Unhalved trace norm of the difference: sum_mu |a_mu - b_mu|.

    Valid because the basis projectors have orthogonal supports; orthogonal
    states sit at distance 2 in this convention.
    """
    diff, den = _difference(a, b)
    return Fraction(sum(map(abs, diff)), den)


def definetti_bound_sym(k: int, lam_min: int) -> Fraction:
    """Leading term (3/4) k(k-1) / lam_min of the subsystem-trace bound.

    lam_min is the smallest nonzero row of the diagram.  The quadratic
    correction term of order (k^2/lam_min)^2 is deliberately not included;
    callers should stay in the regime lam_min >> k^2 where the leading term
    dominates.
    """
    k, lam_min = _size(k, "k"), _size(lam_min, "lam_min")
    return Fraction(3 * k * (k - 1), 4 * lam_min)


def definetti_bound_dual(n: int, q: int) -> Fraction:
    """Exact bound 2 - 2((q - n + 1)/q)^n on the distance to fully mixed
    after the inner trace; requires q >= n."""
    n, q = _size(n, "n"), _size(q, "q")
    if q < n:
        raise ValueError(f"bound needs q >= n, got q={q} < n={n}")
    return 2 - 2 * Fraction(q - n + 1, q) ** n


def degrees_of_freedom(n: int, d: int, kind: str) -> int:
    """Real degrees of freedom of the Werner or symmetric states on n systems.

    werner: sum of f_lam^2 - 1; symmetric: sum of (e^d_lam)^2 - 1, both over
    Par(n, d).  n and d must be integers, as for partitions_of.
    """
    n, d = _size(n, "n", 0), _size(d, "d")
    if kind == "werner":
        return sum(_dim_sym(lam) ** 2 for lam in _partitions(n, d)) - 1
    if kind == "symmetric":
        return sum(_dim_unitary(lam, d) ** 2 for lam in _partitions(n, d)) - 1
    raise ValueError(f"kind must be 'werner' or 'symmetric', not {kind!r}")


HornWitness = namedtuple("HornWitness", "a b c")


def horn_witness(lam: Partition, mu: Partition) -> HornWitness | None:
    """Diagonal Hermitian triple A + B = C with spec(C) = lam, spec(A) = mu.

    Exists iff mu fits inside lam (equivalently the shifted Schur value is
    positive); then B = diag(lam - mu) works.  Spectra are padded to length
    rows(lam), which mu fits inside.  Returns None when mu is not contained
    in lam.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if not contains(mu, lam):
        return None
    a = mu + (0,) * (len(lam) - len(mu))
    b = tuple(ci - ai for ci, ai in zip(lam, a))
    if any(x < 0 for x in b):
        raise ConsistencyError("Horn witness has a negative entry")
    return HornWitness(a, b, lam)
