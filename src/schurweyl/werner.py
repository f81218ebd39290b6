"""Symmetric Werner states as weight vectors, character polynomials and bounds.

A symmetric Werner state on n subsystems of local dimension d is a convex
combination of the normalized projectors rho_mu onto the duality blocks
labelled by mu in Par(n, d).  Because those projectors have orthogonal
supports, the whole calculus happens on the weight vectors: partial traces,
twirls, trace distances and the de Finetti style bounds all become exact
rational arithmetic over Par(n, d).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .characters import character_row, dim_sym, dim_unitary, mn_character
from .errors import ConsistencyError
from .partitions import (
    Partition,
    as_partition,
    class_sizes,
    contains,
    partitions_of,
    rows,
)
from .symfunc import Spectrum, falling_factorial, schur_eval, shifted_schur_eval


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
    operators reuse the same container with is_state() False.  Immutable
    attributes; equal vectors agree on every weight, and the hash is that
    of (n, d).
    """

    __slots__ = ("n", "d", "weights")

    def __init__(self, n: int, d: int, weights: dict[Partition, Fraction]):
        for mu in weights:
            if rows(mu) > d or sum(mu) != n:
                raise ValueError(f"{mu} is not in Par({n},{d})")
        for name, value in (("n", n), ("d", d), ("weights", weights)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"WernerWeights(n={self.n!r}, d={self.d!r}, weights={self.weights!r})"

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    def weight(self, mu: Partition) -> Fraction:
        return self.weights.get(as_partition(mu), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def is_state(self) -> bool:
        return all(w >= 0 for w in self.weights.values()) and self.total() == 1

    def as_json(self) -> dict:
        entries = []
        for mu, w in self.weights.items():
            f = Fraction(w)
            entries.append(
                {"partition": list(mu), "num": f.numerator, "den": f.denominator}
            )
        return {"n": self.n, "d": self.d, "weights": entries}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WernerWeights):
            return NotImplemented
        if (self.n, self.d) != (other.n, other.d):
            return False
        keys = set(self.weights) | set(other.weights)
        return all(self.weight(k) == other.weight(k) for k in keys)


def _weights_on(n: int, d: int, value, total=1,
                error: str = "weights do not sum to 1") -> WernerWeights:
    """Build a weight vector over all of Par(n, d) in enumeration order.

    Raises ConsistencyError(error) unless the weights sum to total.
    """
    out = WernerWeights(n, d, {mu: value(mu) for mu in partitions_of(n, d)})
    if out.total() != total:
        raise ConsistencyError(error)
    return out


@lru_cache(maxsize=None)
def _chi_poly(lam: Partition, mu: Partition) -> IntPolynomial:
    n = sum(lam)
    coeffs = [0] * (n + 1)
    for alpha, h, a, b in zip(partitions_of(n), class_sizes(n),
                              character_row(lam), character_row(mu)):
        coeffs[rows(alpha)] += h * a * b
    return IntPolynomial(coeffs)


def character_polynomial(lam: Partition, mu: Partition) -> IntPolynomial:
    """The degree-n polynomial sum_alpha h_alpha q^c(alpha) chi^lam chi^mu.

    Symmetric in (lam, mu); the constant term vanishes for n >= 1 because
    every cycle type has at least one cycle.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character polynomial needs equal box counts")
    if mu < lam:
        lam, mu = mu, lam
    return _chi_poly(lam, mu)


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
    weight is f_mu * s*_mu(lam) / (n falling k): d x d determinants, with
    no integer of the size of n!.  coefficients.dim_skew (Aitken's
    determinant) is the independent cross-check in the tests, and the
    check inner-sum-subsystem ties the shifted form to the literal
    coefficient sum.
    """
    if d < 1:
        raise ValueError("d must be positive")
    lam = as_partition(lam)
    n = sum(lam)
    if rows(lam) > d:
        raise ValueError(f"{lam} has more than {d} rows")
    if not 1 <= k <= n:
        raise ValueError("k must be between 1 and n")
    scale = falling_factorial(n, k)
    return _weights_on(k, d, lambda mu: dim_sym(mu) * shifted_schur_eval(mu, lam, d) / scale)


def dual_trace(lam: Partition, p: int, q: int) -> WernerWeights:
    """Weights after tracing out the q-dimensional half of every subsystem.

    a_mu = e^p_mu * chi^{lam mu}(q) / (n! e^{pq}_lam) over mu in Par(n, p).
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    lam = as_partition(lam)
    n = sum(lam)
    if rows(lam) > p * q:
        raise ValueError(f"{lam} has more than {p * q} rows")
    denom = factorial(n) * dim_unitary(lam, p * q)
    return _weights_on(
        n, p, lambda mu: Fraction(dim_unitary(mu, p) * character_polynomial(lam, mu)(q), denom)
    )


def twirl_power(r: Spectrum, k: int) -> WernerWeights:
    """Weights of the unitarily twirled k-th power of a state with spectrum r.

    Entries are read exactly as Fraction(x) and must sum to exactly 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    vals = sorted((Fraction(x) for x in r), reverse=True)
    if any(v < 0 for v in vals):
        raise ValueError("spectrum entries must be non-negative")
    if sum(vals) != 1:
        raise ValueError("spectrum must sum to 1")
    return _weights_on(k, len(vals), lambda mu: dim_sym(mu) * schur_eval(mu, vals))


def dual_twirl_cycle(alpha: Partition, d: int) -> WernerWeights:
    """The symmetrised cycle operator for cycle type alpha, as weights.

    weight(mu) = e^d_mu chi^mu(alpha) / d^n.  Generally not a state: weights
    can be negative.  The weights sum to d^(c(alpha) - n), the trace of the
    averaged, normalized permutation operator; for alpha = (1^n) this is the
    fully mixed state.
    """
    if d < 1:
        raise ValueError("d must be positive")
    alpha = as_partition(alpha)
    n = sum(alpha)
    return _weights_on(
        n, d, lambda mu: Fraction(dim_unitary(mu, d) * mn_character(mu, alpha), d**n),
        Fraction(d ** rows(alpha), d**n), "cycle weights do not sum to d^(c - n)",
    )


def cycle_sum_expansion(lam: Partition, p: int, q: int) -> dict[Partition, Fraction]:
    """Coefficients of the traced state over symmetrised cycle operators.

    coefficient(alpha) = p^n h_alpha q^c(alpha) chi^lam(alpha) / (n! e^{pq}_lam),
    chosen so that sum_alpha coefficient(alpha) * dual_twirl_cycle(alpha, p)
    reproduces dual_trace(lam, p, q) exactly.  The p^n factor compensates the
    1/p^n normalization inside the cycle operators.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    lam = as_partition(lam)
    n = sum(lam)
    if rows(lam) > p * q:
        raise ValueError(f"{lam} has more than {p * q} rows")
    denom = factorial(n) * dim_unitary(lam, p * q)
    return {
        alpha: Fraction(p**n * h * q ** rows(alpha) * chi, denom)
        for alpha, h, chi in zip(partitions_of(n), class_sizes(n), character_row(lam))
    }


def recombine_cycle_sum(coeffs: dict[Partition, Fraction], p: int) -> WernerWeights:
    """Contract a cycle-sum expansion back to a weight vector over Par(n, p)."""
    n = sum(next(iter(coeffs)))
    acc = {mu: Fraction(0) for mu in partitions_of(n, p)}
    for alpha, c in coeffs.items():
        if c == 0:
            continue
        cyc = dual_twirl_cycle(alpha, p)
        for mu, w in cyc.weights.items():
            acc[mu] += c * w
    return WernerWeights(n, p, acc)


def fully_mixed(n: int, d: int) -> WernerWeights:
    """Weights of the fully mixed state I / d^n: e^d_mu f_mu / d^n."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return _weights_on(n, d, lambda mu: Fraction(dim_unitary(mu, d) * dim_sym(mu), d**n))


def trace_distance(a: WernerWeights, b: WernerWeights) -> Fraction:
    """Unhalved trace norm of the difference: sum_mu |a_mu - b_mu|.

    Valid because the basis projectors have orthogonal supports; orthogonal
    states sit at distance 2 in this convention.
    """
    if (a.n, a.d) != (b.n, b.d):
        raise ValueError("weight vectors live on different (n, d)")
    keys = set(a.weights) | set(b.weights)
    return sum((abs(a.weight(k) - b.weight(k)) for k in keys), Fraction(0))


def definetti_bound_sym(k: int, lam_min: int) -> Fraction:
    """Leading term (3/4) k(k-1) / lam_min of the subsystem-trace bound.

    lam_min is the smallest nonzero row of the diagram.  The quadratic
    correction term of order (k^2/lam_min)^2 is deliberately not included;
    callers should stay in the regime lam_min >> k^2 where the leading term
    dominates.
    """
    if k < 1 or lam_min < 1:
        raise ValueError("k and lam_min must be positive")
    return Fraction(3 * k * (k - 1), 4 * lam_min)


def definetti_bound_dual(n: int, q: int) -> Fraction:
    """Exact bound 2 - 2((q - n + 1)/q)^n on the distance to fully mixed
    after the inner trace; requires q >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if q < n:
        raise ValueError(f"bound needs q >= n, got q={q} < n={n}")
    return 2 - 2 * Fraction(q - n + 1, q) ** n


def degrees_of_freedom(n: int, d: int, kind: str) -> int:
    """Real degrees of freedom of the Werner or symmetric states on n systems.

    werner: sum of f_lam^2 - 1; symmetric: sum of (e^d_lam)^2 - 1, both over
    Par(n, d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    parts = partitions_of(n, d)
    if kind == "werner":
        return sum(dim_sym(lam) ** 2 for lam in parts) - 1
    if kind == "symmetric":
        return sum(dim_unitary(lam, d) ** 2 for lam in parts) - 1
    raise ValueError(f"kind must be 'werner' or 'symmetric', not {kind!r}")


HornWitness = namedtuple("HornWitness", "a b c")


def horn_witness(lam: Partition, mu: Partition) -> HornWitness | None:
    """Diagonal Hermitian triple A + B = C with spec(C) = lam, spec(A) = mu.

    Exists iff mu fits inside lam (equivalently the shifted Schur value is
    positive); then B = diag(lam - mu) works.  Spectra are padded to length
    |lam|.  Returns None when mu is not contained in lam.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if not contains(mu, lam):
        return None
    n = sum(lam)
    c = tuple(lam) + (0,) * (n - len(lam))
    a = tuple(mu) + (0,) * (n - len(mu))
    b = tuple(ci - ai for ci, ai in zip(c, a))
    if any(x < 0 for x in b):
        raise ConsistencyError("Horn witness has a negative entry")
    return HornWitness(a, b, c)
