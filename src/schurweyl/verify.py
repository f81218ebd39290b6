"""The registry of verification checks behind the `verify` subcommand.

Each check recomputes one family of identities or bounds from scratch over
fixed ranges.  It is written as a generator of (case, ok) pairs: case holds
the parameters of one case as JSON-able data (ints, strings, and tuples or
lists of them; spectra as "a/b" strings).  The `_check(registry)` decorator
makes it the module-level `check_*(*, seed) -> dict` that counts its pairs
through `_tally` into the report {check, lhs, rhs, pass, cases, failures,
counterexample}: lhs reads "F failures in N cases" and counterexample is the
first failing case, or None.  The counting happens inside the check's own
call, so timing a `check_*` binding times its work.

The decorator also registers the check: its report name is the function
name without `check_`, underscores turned into dashes, so
`check_kronecker_restriction` reports as "kronecker-restriction" and a report
name is written nowhere else.  There are three registries, each a dict from
report name to check in definition order, which is run order: FORMULAS
(pure weight calculus), BOUNDS (the distance bounds) and ORACLE (everything
rebuilt as dense matrices and re-measured).  SUITES names them for
`run_suite`; `_run` stamps the name on the report.

Every check takes the keyword-only argument seed, used or not, so one loop
runs them all; the oracle checks build under the size cap in force
(`with errors.size_cap(n):` around the run).  Keep the registries flat and
at module level: code that rebinds a check wherever it is bound (as
`perfbench` does to time each one) replaces module globals and the entries
of module-level dicts, not of nested ones.
All checks are deterministic for a fixed (size cap, seed).
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm, perm
from operator import mul

import numpy as np

from . import oracle
from .characters import character_row, dim_sym, dim_unitary, mn_character
from .coefficients import (
    branching_sum_kron,
    branching_sum_lr,
    dim_skew,
    kronecker,
    littlewood_richardson,
    littlewood_richardson_char,
)
from .errors import SizeCapError
from .partitions import (
    class_size,
    class_sizes,
    conjugate,
    contains,
    first_standard_tableau,
    normalized,
    partitions_of,
    rows,
    skew_standard_count,
    standard_tableaux,
)
from .symfunc import schur_eval, schur_eval_tableau, shifted_schur_eval
from .werner import (
    character_polynomial,
    definetti_bound_dual,
    definetti_bound_sym,
    dual_trace,
    dual_twirl_cycle,
    fully_mixed,
    root_range,
    trace_distance,
    trace_out_sym,
    twirl_power,
)

Cases = Iterator[tuple[object, bool]]


def _tally(pairs: Iterable[tuple[object, bool]]) -> dict:
    """The report of one check: its (case, ok) pairs counted."""
    cases = failures = 0
    counterexample = None
    for case, ok in pairs:
        cases += 1
        if not ok:
            if failures == 0:
                counterexample = case
            failures += 1
    return {"lhs": f"{failures} failures in {cases} cases", "rhs": "0 failures",
            "pass": failures == 0, "cases": cases, "failures": failures,
            "counterexample": counterexample}


# report name -> check, in run order; filled by @_check below
FORMULAS: dict[str, Callable[..., dict]] = {}
BOUNDS: dict[str, Callable[..., dict]] = {}
ORACLE: dict[str, Callable[..., dict]] = {}
SUITES = {"formulas": FORMULAS, "bounds": BOUNDS, "oracle": ORACLE}


def _check(registry: dict[str, Callable[..., dict]]):
    """Make the generator `cases` a check that runs it to the end and returns
    its tally, and register that check in `registry` under its report name."""
    def register(cases: Callable[..., Cases]) -> Callable[..., dict]:
        @functools.wraps(cases)
        def check(*, seed: int) -> dict:
            return _tally(cases(seed=seed))

        registry[cases.__name__.removeprefix("check_").replace("_", "-")] = check
        return check

    return register


def _spectrum(r: tuple[Fraction, ...]) -> tuple[str, ...]:
    return tuple(f"{x.numerator}/{x.denominator}" for x in r)


@_check(FORMULAS)
def check_character_orthogonality(*, seed: int) -> Cases:
    """Row and column orthogonality of the character table of S_n, exact:
    sum_alpha h_alpha chi^l(alpha) chi^m(alpha) = n! delta_lm and
    sum_lam chi^lam(alpha) chi^lam(beta) = (n!/h_alpha) delta_ab."""
    for n in range(1, 9):
        parts, nfact = partitions_of(n), factorial(n)
        h = {alpha: class_size(alpha) for alpha in parts}
        chi = {(lam, alpha): mn_character(lam, alpha) for lam in parts for alpha in parts}
        yield n, all(
            sum(h[g] * chi[a, g] * chi[b, g] for g in parts) == (nfact if a == b else 0)
            and sum(chi[lam, a] * chi[lam, b] for lam in parts) == (nfact // h[a] if a == b else 0)
            for a in parts for b in parts)


@_check(FORMULAS)
def check_dimension_identities(*, seed: int) -> Cases:
    """sum f^2 = n!, sum e^d f = d^n, and the hook-content e^d against the
    character sum n! e^d_lam = sum_alpha h_alpha d^c(alpha) chi^lam(alpha)."""
    for n in range(1, 9):
        squares = sum(dim_sym(lam) ** 2 for lam in partitions_of(n))
        yield ("sum f^2 = n!", n), squares == factorial(n)
    for n in range(1, 8):
        parts = partitions_of(n)
        for d in range(1, 7):
            total = sum(dim_unitary(lam, d) * dim_sym(lam) for lam in partitions_of(n, d))
            yield ("sum e f = d^n", n, d), total == d**n
            for lam in parts:
                charsum = sum(h * d ** rows(alpha) * chi for alpha, h, chi
                              in zip(parts, class_sizes(n), character_row(lam)))
                yield ("e two paths", lam, d), factorial(n) * dim_unitary(lam, d) == charsum


@_check(FORMULAS)
def check_lr_two_paths(*, seed: int) -> Cases:
    for n in range(1, 7):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        yield (lam, mu, nu), (littlewood_richardson(lam, mu, nu)
                                              == littlewood_richardson_char(lam, mu, nu))


@_check(FORMULAS)
def check_kronecker_restriction(*, seed: int) -> Cases:
    """<chi^lam chi^mu, 1> on S_{n-k} x S_k two ways: Young's rule gives
    sum_{j<=k} g_{lam mu (n-j,j)}, LR restriction sum_ab c^lam_ab c^mu_ab."""
    for n in range(1, 7):
        parts = partitions_of(n)
        for k in range(n // 2 + 1):
            pairs = [(a, b) for a in partitions_of(n - k) for b in partitions_of(k)]
            lr = {lam: [littlewood_richardson(lam, a, b) for a, b in pairs] for lam in parts}
            for lam in parts:
                for mu in parts:
                    young = sum(kronecker(lam, mu, (n - j, j)) for j in range(k + 1))
                    yield (lam, mu, k), young == sum(map(mul, lr[lam], lr[mu]))


@_check(FORMULAS)
def check_kronecker_row_bound(*, seed: int) -> Cases:
    """Some nu with few rows couples to every (lam, mu) pair."""
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                cap = max(rows(lam), rows(mu))
                yield (lam, mu), any(kronecker(lam, mu, nu) > 0 for nu in partitions_of(n, cap))


@_check(FORMULAS)
def check_inner_sum_subsystem(*, seed: int) -> Cases:
    """f * s*_mu(lam) / (n falling k) = sum_nu c f_nu = skew count = dim_skew."""
    for n in range(1, 8):
        for lam in partitions_of(n):
            d = max(rows(lam), 1)
            for k in range(n + 1):
                for mu in partitions_of(k):
                    if not contains(mu, lam):
                        continue
                    via_skew = skew_standard_count(lam, mu)
                    via_lr = branching_sum_lr(lam, mu, n)
                    shifted = shifted_schur_eval(mu, lam, max(d, rows(mu)))
                    via_shifted = Fraction(dim_sym(lam)) * shifted / perm(n, k)
                    yield (lam, mu), via_skew == via_lr == via_shifted == dim_skew(lam, mu)


@_check(FORMULAS)
def check_inner_sum_vanishing(*, seed: int) -> Cases:
    """Outside containment the shifted Schur value, the sums and dim_skew vanish."""
    for n in range(1, 7):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    if contains(mu, lam):
                        continue
                    d = max(rows(lam), rows(mu))
                    yield (lam, mu), (shifted_schur_eval(mu, lam, d) == 0
                                      and branching_sum_lr(lam, mu, n) == 0
                                      and dim_skew(lam, mu) == 0)


@_check(FORMULAS)
def check_inner_sum_inner_trace(*, seed: int) -> Cases:
    """n! * sum_nu g e^q_nu = value of the character polynomial at q."""
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                poly = character_polynomial(lam, mu)
                for q in range(1, 7):
                    yield (lam, mu, q), factorial(n) * branching_sum_kron(lam, mu, q) == poly(q)


@_check(FORMULAS)
def check_character_polynomial_symmetries(*, seed: int) -> Cases:
    """Symmetry in the pair, conjugate-pair equality, sign rule under one
    conjugation, orthogonality at q=1, and degree n with leading coefficient
    f_lam f_mu and no constant term."""
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                a = character_polynomial(lam, mu)
                ok = a == character_polynomial(mu, lam)
                ok = ok and a == character_polynomial(conjugate(lam), conjugate(mu))
                b = character_polynomial(conjugate(lam), mu)
                ok = ok and all(b(q) == (-1) ** n * a(-q) for q in range(-n, n + 1))
                ok = ok and a(1) == (factorial(n) if lam == mu else 0)
                ok = ok and a.degree == n and a.coeffs[0] == 0
                ok = ok and a.coeffs[-1] == dim_sym(lam) * dim_sym(mu)
                yield (lam, mu), ok


@_check(FORMULAS)
def check_root_structure(*, seed: int) -> Cases:
    """q+ = 1 exactly on the diagonal.  root_range builds contiguous roots
    around 0 under the row bound on q+, or raises ConsistencyError."""
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                try:
                    rr = root_range(lam, mu)
                except Exception:
                    yield (lam, mu), False
                    continue
                yield (lam, mu), (rr.q_plus == 1) == (lam == mu)


@_check(FORMULAS)
def check_trace_maps_preserve_states(*, seed: int) -> Cases:
    """Both trace maps return genuine states: non-negative weights, sum 1."""
    for n in range(1, 6):
        for d in range(1, 5):
            for lam in partitions_of(n, d):
                for k in range(1, n + 1):
                    yield ("sym", lam, k, d), trace_out_sym(lam, k, d).is_state()
        for p in range(1, 5):
            for q in range(1, 5):
                for lam in partitions_of(n, p * q):
                    yield ("dual", lam, p, q), dual_trace(lam, p, q).is_state()


@_check(FORMULAS)
def check_column_dual_cauchy(*, seed: int) -> Cases:
    """The column in closed form: dual_trace((1^n), p, q) has
    a_mu = e^p_mu e^q_mu' / C(pq, n), by the dual Cauchy identity
    sum_mu s_mu(x) s_mu'(y) = prod_ij (1 + x_i y_j) (Macdonald I.4)."""
    for n in range(1, 6):
        col = (1,) * n
        for p in range(1, 5):
            for q in range(1, 5):
                if n > p * q:
                    continue
                want = {mu: Fraction(dim_unitary(mu, p) * dim_unitary(conjugate(mu), q),
                                     comb(p * q, n)) for mu in partitions_of(n, p)}
                yield (col, p, q), dual_trace(col, p, q).weights == want


@_check(FORMULAS)
def check_dual_trace_paths(*, seed: int) -> Cases:
    """The independent oracle of dual_trace's row product, on the ranges of
    trace-maps-preserve-states: a_mu e^{pq}_lam = e^p_mu sum_nu g_{lam mu nu}
    e^q_nu, from s_lam[XY] = sum g_{lam mu nu} s_mu[X] s_nu[Y] (Macdonald
    I.7).  It reads Kronecker coefficients and the hook-content e^q, not
    q^c(alpha)."""
    for n in range(1, 6):
        for p in range(1, 5):
            for q in range(1, 5):
                for lam in partitions_of(n, p * q):
                    e = dim_unitary(lam, p * q)
                    want = {mu: Fraction(dim_unitary(mu, p) * branching_sum_kron(lam, mu, q), e)
                            for mu in partitions_of(n, p)}
                    yield (lam, p, q), dual_trace(lam, p, q).weights == want


@_check(FORMULAS)
def check_cycle_operator_trace(*, seed: int) -> Cases:
    for n in range(1, 7):
        for d in range(1, 6):
            for alpha in partitions_of(n):
                w = dual_twirl_cycle(alpha, d)
                yield (alpha, d), w.total() == Fraction(d ** rows(alpha), d**n)


@_check(FORMULAS)
def check_shifted_schur_scaling_limit(*, seed: int) -> Cases:
    """Scaled diagrams: the normalized shifted value approaches the Schur
    value monotonically at an O(1/m) rate (ratio within a factor 2 of 10
    per decade of m)."""
    for mu, lam in (((2,), (2, 1)), ((1, 1), (2, 1)), ((2, 1), (3, 2, 1))):
        n, k = sum(lam), sum(mu)
        d = len(lam)
        target = schur_eval(mu, normalized(lam))
        deltas = []
        for m in (1, 10, 100):
            scaled = tuple(m * x for x in lam)
            val = shifted_schur_eval(mu, scaled, d) / perm(m * n, k)
            deltas.append(abs(val - target))
        ok = deltas[0] > deltas[1] > deltas[2]
        ok = ok and Fraction(5) <= deltas[1] / deltas[2] <= Fraction(20)
        yield (mu, lam), ok


def _random_spectrum(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    raw = [Fraction(rng.randint(1, 12), 1) for _ in range(d)]
    total = sum(raw)
    return tuple(sorted((x / total for x in raw), reverse=True))


@_check(FORMULAS)
def check_twirl_power_weights(*, seed: int) -> Cases:
    """Twirled powers are states; pure and fully mixed specializations."""
    rng = random.Random(seed)
    for d in (2, 3):
        for k in (1, 2, 3):
            for _ in range(4):
                r = _random_spectrum(rng, d)
                yield (_spectrum(r), k), twirl_power(r, k).is_state()
            pure = twirl_power((1,) + (0,) * (d - 1), k)
            yield ("pure", d, k), pure.weight((k,)) == 1
            flat = twirl_power((Fraction(1, d),) * d, k)
            yield ("fully mixed", d, k), flat == fully_mixed(k, d)


@_check(FORMULAS)
def check_schur_evaluation_paths(*, seed: int) -> Cases:
    rng = random.Random(seed)
    shapes = [mu for k in range(1, 5) for mu in partitions_of(k)]
    for d in (2, 3, 4):
        for _ in range(3):
            r = _random_spectrum(rng, d)
            for mu in shapes:
                yield (mu, _spectrum(r)), schur_eval(mu, r) == schur_eval_tableau(mu, list(r))


@_check(BOUNDS)
def check_dual_definetti_weight_sweep(*, seed: int) -> Cases:
    """Distance from the traced state to fully mixed obeys the exact bound,
    strictly for n >= 2 (at n = 1 both sides are 0), for every diagram in
    range.  Pure rational comparison, no tolerance."""
    for n in range(1, 5):
        for p in range(1, 4):
            for q in range(n, 7):
                mixed = fully_mixed(n, p)
                bound = definetti_bound_dual(n, q)
                for lam in partitions_of(n, p * q):
                    dist = trace_distance(dual_trace(lam, p, q), mixed)
                    yield (lam, p, q), dist < bound or (dist == bound and n == 1)


@_check(BOUNDS)
def check_dual_definetti_asymptote(*, seed: int) -> Cases:
    """For large q the exact bound is within 1% of 2n(n-1)/q."""
    for n in (2, 3):
        q = 1000
        exact = definetti_bound_dual(n, q)
        lead = Fraction(2 * n * (n - 1), q)
        yield (n, q), abs(exact - lead) <= lead / 100


@_check(BOUNDS)
def check_sym_definetti_dominant_regime(*, seed: int) -> Cases:
    """Subsystem-trace distance to the twirled power state obeys the leading
    bound in the regime lam_min >= 20 k^2 where that term dominates."""
    for k, lam in ((2, (160, 80)), (3, (360, 180)), (2, (120, 100, 80))):
        d = len(lam)
        dist = trace_distance(trace_out_sym(lam, k, d), twirl_power(normalized(lam), k))
        yield (lam, k), dist <= definetti_bound_sym(k, lam[-1])


@_check(BOUNDS)
def check_bound_edge_cases(*, seed: int) -> Cases:
    yield "dual(1, 7) = 0, dual(2, 2) = 3/2", (definetti_bound_dual(1, 7) == 0
                                               and definetti_bound_dual(2, 2) == Fraction(3, 2))
    yield "sym(1, 5) = 0", definetti_bound_sym(1, 5) == 0
    try:
        definetti_bound_dual(3, 2)
        raised = False
    except ValueError:
        raised = True
    yield "dual(3, 2) raises", raised


# --- oracle suite ----------------------------------------------------------


@_check(ORACLE)
def check_permutation_traces(*, seed: int) -> Cases:
    for n in (2, 3):
        for d in (2, 3):
            for pi in permutations(range(n)):
                op = oracle.permutation_operator(pi, d)
                yield (pi, d), op.trace() == d ** rows(oracle.cycle_type(pi))


@_check(ORACLE)
def check_duality_projector_families(*, seed: int) -> Cases:
    """Orthogonality, completeness and traces of the duality projectors."""
    for d, n in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (6, 2), (4, 3)):
        parts = partitions_of(n, d)
        ps = {lam: oracle.schur_weyl_projector(lam, d) for lam in parts}
        total = oracle.identity_operator(n, d) * 0
        ok = True
        for lam, p in ps.items():
            ok = ok and p.is_symmetric() and (p @ p).same_as(p)
            ok = ok and p.trace() == dim_unitary(lam, d) * dim_sym(lam)
            total = total + p
        ok = ok and total.same_as(oracle.identity_operator(n, d))
        for a in parts:
            for b in parts:
                if a != b:
                    ok = ok and (ps[a] @ ps[b]).is_zero()
        yield (n, d), ok


@_check(ORACLE)
def check_subsystem_trace_oracle(*, seed: int) -> Cases:
    """Dense partial trace of each block state is a state and equals the
    weight formula."""
    for d in range(2, 4):
        for n in range(2, 5):
            for lam in partitions_of(n, d):
                ef = dim_unitary(lam, d) * dim_sym(lam)
                rho = oracle.schur_weyl_projector(lam, d) * Fraction(1, ef)
                for k in range(1, n + 1):
                    red = oracle.partial_trace_subsystems(rho, k)
                    wts = oracle.schur_weyl_weights(red)
                    expect = trace_out_sym(lam, k, d)
                    ok = red.trace() == 1 and wts == dict(expect.weights)
                    ok = ok and oracle.werner_combination(expect).same_as(red)
                    yield (lam, k, d), ok


@_check(ORACLE)
def check_inner_trace_oracle(*, seed: int) -> Cases:
    """Dense inner partial trace equals the dual weight formula, both for the
    full block state and for a single-irrep copy; on the copy it also equals
    the trace taken in the group algebra."""
    for p, q, n in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)):
        for lam in partitions_of(n, p * q):
            expect = dict(dual_trace(lam, p, q).weights)
            ef = dim_unitary(lam, p * q) * dim_sym(lam)
            rho = oracle.schur_weyl_projector(lam, p * q) * Fraction(1, ef)
            red = oracle.partial_trace_inner(rho, p, q)
            ok = oracle.schur_weyl_weights(red) == expect
            ok = ok and oracle.werner_combination(dual_trace(lam, p, q)).same_as(red)
            t = first_standard_tableau(lam)
            single = oracle.young_projector(t, p * q) * Fraction(1, dim_unitary(lam, p * q))
            red2 = oracle.partial_trace_inner(single, p, q)
            ok = ok and oracle.schur_weyl_weights(red2) == expect
            ok = ok and red2.same_as(oracle._traced_tableau_state(t, p, q))
            yield (lam, p, q), ok


@_check(ORACLE)
def check_cycle_operator_oracle(*, seed: int) -> Cases:
    """Averaged permutation operators expand with the predicted coefficients,
    including the (2,1) at d=3 value (10/27, 0, -1/27)."""
    for d in (2, 3):
        for pi in permutations(range(3)):
            op = oracle.permutation_operator(pi, d) * Fraction(1, d**3)
            sym = oracle.symmetric_average(op)
            wts = oracle.schur_weyl_weights(sym)
            yield (pi, d), wts == dict(dual_twirl_cycle(oracle.cycle_type(pi), d).weights)
    special = dict(dual_twirl_cycle((2, 1), 3).weights)
    yield ("published", (2, 1), 3), special == {
        (3,): Fraction(10, 27), (2, 1): Fraction(0), (1, 1, 1): Fraction(-1, 27)}


@_check(ORACLE)
def check_tableau_projectors(*, seed: int) -> Cases:
    """Idempotence, symmetry, trace (= rank = unitary dimension), the
    symmetric-subspace and antisymmetrizer specializations, and the
    permutation average collapsing to the block projector."""
    for n in (2, 3):
        for shape in partitions_of(n):
            for t in standard_tableaux(shape):
                for d in (2, 3):
                    yp = oracle.young_projector(t, d)
                    ok = yp.is_symmetric() and (yp @ yp).same_as(yp)
                    ok = ok and yp.trace() == dim_unitary(shape, d)
                    yield (t, d), ok
    row = first_standard_tableau((3,))
    yield ("row is the symmetric projector", row, 2), oracle.young_projector(row, 2).same_as(
        oracle.schur_weyl_projector((3,), 2))
    col = tuple((k,) for k in (1, 2, 3))
    anti = oracle.young_projector(col, 3)
    yield ("column has rank 1", col, 3), anti.trace() == 1  # binom(3, 3)
    t21 = first_standard_tableau((2, 1))
    avg = oracle.symmetric_average(oracle.young_projector(t21, 2))
    want = oracle.schur_weyl_projector((2, 1), 2) * Fraction(1, dim_sym((2, 1)))
    yield ("average is the block state", t21, 2), avg.same_as(want)


@_check(ORACLE)
def check_twirl_power_oracle(*, seed: int) -> Cases:
    """For diagonal states the dense block projections of sigma^(x k) match
    the twirled-power weights exactly."""
    rng = random.Random(seed)
    d = 2
    for k in (2, 3):
        for _ in range(3):
            r = _random_spectrum(rng, d)
            den = lcm(*(x.denominator for x in r))
            spectrum = np.array([int(x * den) for x in r], dtype=object)
            diag = functools.reduce(np.kron, [spectrum] * k)  # factor 1 is the top digit
            power = oracle.DenseOperator(np.diag(diag), Fraction(1, den**k), k, d)
            wts = oracle.schur_weyl_weights(power)
            yield (_spectrum(r), k), wts == dict(twirl_power(r, k).weights)


@_check(ORACLE)
def check_general_dual_definetti(*, seed: int) -> Cases:
    """Single-irrep states of every standard tableau with n <= 3, at
    p in {2, 3} and q in {n, n+1, 3n}: the distance bound and the exact
    positivity of the remainder.  Then the (2,1) sweep over q = 3..6 at
    p = 2 approaches fully mixed monotonically."""
    for n in range(1, 4):
        for shape in partitions_of(n):
            for t in standard_tableaux(shape):
                for p in (2, 3):
                    for q in (n, n + 1, 3 * n):
                        yield (t, p, q), oracle.verify_general_dual(t, p, q)["pass"]
    t21 = first_standard_tableau((2, 1))
    deltas = []
    for q in range(3, 7):
        rep = oracle.verify_general_dual(t21, 2, q)
        deltas.append(rep["delta"])
        yield (t21, 2, q), rep["pass"]
    yield ("distance falls as q grows", t21, 2), all(a > b for a, b in zip(deltas, deltas[1:]))


@_check(ORACLE)
def check_trace_norm_paths(*, seed: int) -> Cases:
    """Float trace norm agrees with the exact weight-difference norm for
    operators diagonal in the duality basis."""
    for lam in partitions_of(2, 4):
        red = oracle.werner_combination(dual_trace(lam, 2, 2))
        mixed = oracle.werner_combination(fully_mixed(2, 2))
        exact = trace_distance(dual_trace(lam, 2, 2), fully_mixed(2, 2))
        yield (lam, 2, 2), abs(oracle.trace_norm(red - mixed) - float(exact)) <= 1e-9
    proj = oracle.schur_weyl_projector((2,), 2)
    yield ("projector", (2,), 2), abs(oracle.trace_norm(proj) - float(proj.trace())) <= 1e-9


@_check(ORACLE)
def check_partial_trace_rules(*, seed: int) -> Cases:
    """Product states reduce factor-wise and traces are preserved."""
    a = np.empty((2, 2), dtype=object)
    a[:] = [[2, 1], [1, 3]]
    b = np.empty((2, 2), dtype=object)
    b[:] = [[1, 1], [1, 5]]
    ab = oracle.DenseOperator(np.array(np.kron(a, b).tolist(), dtype=object),
                              Fraction(1, 7), 2, 2)
    red = oracle.partial_trace_subsystems(ab, 1)
    want = oracle.DenseOperator(a * 6, Fraction(1, 7), 1, 2)  # trace(b) = 6
    yield "keep 1 of 2", red.same_as(want) and red.trace() == ab.trace()
    ab4 = oracle.DenseOperator(ab.mat, ab.scale, 1, 4)  # one factor C^2 (x) C^2
    inner = oracle.partial_trace_inner(ab4, 2, 2)
    yield "inner trace", inner.same_as(want) and inner.trace() == ab4.trace()
    full = oracle.partial_trace_subsystems(ab, 2)
    yield "keep 2 of 2", full.same_as(ab)


def _run(name: str, check, seed: int = 0) -> dict:
    """The report of one check under its registry name.  A crash inside a
    check is a failed check, not a crashed suite.  Size-cap errors do
    propagate: they are a resource condition, not a verification verdict."""
    try:
        return {"check": name, **check(seed=seed)}
    except SizeCapError:
        raise
    except Exception as exc:
        return {"check": name, "lhs": f"exception: {exc}", "rhs": "0 failures",
                "pass": False}


def run_suite(suite: str, seed: int = 0) -> list[dict]:
    """Run one of formulas | bounds | oracle | all; returns the report list."""
    if suite == "all":
        registries = list(SUITES.values())
    elif suite in SUITES:
        registries = [SUITES[suite]]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [_run(name, check, seed)
            for registry in registries for name, check in registry.items()]
