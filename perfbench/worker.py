"""One pass of an in-process workload, run in a fresh interpreter.

Reads a job (workload, operation list, optional span file) as JSON on stdin,
imports schurweyl from the path the runner put on PYTHONPATH, and writes one
JSON result to stdout: the time it was ready to run its first operation, the
latency of every operation, and a message for every failed check.  Checks run
between operations, outside the timed intervals, with tracing switched off.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import schurweyl as sw
from schurweyl import characters, verify

import tracing


def _state_error(w, n: int, d: int) -> str | None:
    if (w.n, w.d) != (n, d):
        return f"weights live on ({w.n},{w.d}), expected ({n},{d})"
    if any(v < 0 for v in w.weights.values()) or w.total() != 1:
        return f"not a state: total {w.total()}"
    return None


# --- algebra-session: kind -> (call, check) ---------------------------------

def _chi_poly(lam, mu):
    return sw.character_polynomial(lam, mu), sw.root_range(lam, mu)


def _check_chi_poly(args, result) -> str | None:
    lam, mu = args
    poly, rr = result
    n = sum(lam)
    conj = tuple(sw.conjugate(lam))
    # row orthogonality at q = 1 and its sign-twisted form at q = -1
    if poly(1) != (factorial(n) if lam == mu else 0):
        return f"poly(1) = {poly(1)}"
    if poly(-1) != ((-1) ** n * factorial(n) if conj == mu else 0):
        return f"poly(-1) = {poly(-1)}"
    if poly.coeffs[0] != 0 or any(poly(r) != 0 for r in rr.roots) or poly(rr.q_plus) <= 0:
        return f"root window {rr} inconsistent"
    return None


def _check_kronecker(args, value) -> str | None:
    lam, mu, nu = args
    if value < 0 or sw.kronecker(mu, nu, lam) != value:
        return f"g = {value} not symmetric or negative"
    return None


def _check_lr(args, value) -> str | None:
    if value < 0:
        return f"c = {value}"
    return None


def _check_lr_second_path(args, value) -> str | None:
    other = sw.littlewood_richardson_char(*args)
    return None if other == value else f"tableau path {value} != character path {other}"


def _check_shifted(args, value) -> str | None:
    mu, lam, _d = args
    n, k = sum(lam), sum(mu)
    # Okounkov-Olshanski: s*_mu(lam) = n!/(n-k)! * f^(lam/mu) / f^lam
    other = Fraction(factorial(n) // factorial(n - k) * sw.dim_skew(lam, mu), sw.dim_sym(lam))
    return None if other == value else f"{value} != {other}"


def _check_dim_skew(args, value) -> str | None:
    other = sw.skew_standard_count(*args)
    return None if other == value else f"dim_skew {value} != brute force {other}"


def _check_dual_twirl(args, w) -> str | None:
    alpha, d = args
    want = Fraction(d ** len(alpha), d ** sum(alpha))
    return None if w.total() == want else f"total {w.total()} != {want}"


ALGEBRA = {
    "chi_poly": (_chi_poly, _check_chi_poly),
    "kronecker": (lambda *a: sw.kronecker(*a), _check_kronecker),
    "trace_out_sym": (lambda *a: sw.trace_out_sym(*a), lambda a, w: _state_error(w, a[1], a[2])),
    "dual_trace": (lambda *a: sw.dual_trace(*a), lambda a, w: _state_error(w, sum(a[0]), a[1])),
    "twirl_power": (lambda r, k: sw.twirl_power([Fraction(x) for x in r], k),
                    lambda a, w: _state_error(w, a[1], len(a[0]))),
    "dual_twirl_cycle": (lambda *a: sw.dual_twirl_cycle(*a), _check_dual_twirl),
    "littlewood_richardson": (lambda *a: sw.littlewood_richardson(*a), _check_lr),
    "shifted_schur_eval": (lambda *a: sw.shifted_schur_eval(*a), _check_shifted),
    "dim_skew": (lambda *a: sw.dim_skew(*a), _check_dim_skew),
}


def _algebra(ops: list[dict], tracer) -> tuple[list[float], float, list[str]]:
    latencies, failures = [], []
    lr_seen = 0
    for i, op in enumerate(ops):
        call, check = ALGEBRA[op["kind"]]
        args = [tuple(a) if isinstance(a, list) else a for a in op["args"]]
        result, seconds = _timed(tracer, i, call, *args)
        latencies.append(seconds)
        msg = check(args, result)
        if op["kind"] == "littlewood_richardson" and not op.get("repeat"):
            lr_seen += 1
            if msg is None and lr_seen % 3 == 1:  # a fixed share on a second path
                msg = _check_lr_second_path(args, result)
        if msg:
            failures.append(f"{op['kind']}{op['args']}: {msg}")
    return latencies, sum(latencies), failures


# --- oracle-dense ----------------------------------------------------------

def _tableau(shape, index):
    return list(sw.standard_tableaux(tuple(shape)))[index]


def _oracle_call(op: dict, results: dict):
    kind, shape, d = op["kind"], tuple(op["shape"]), op.get("d")
    ref = results.get(op.get("ref"))
    if kind == "young_projector":
        t = _tableau(shape, op["tableau"])
        return lambda: sw.young_projector(t, d)
    if kind == "schur_weyl_projector":
        return lambda: sw.schur_weyl_projector(shape, d)
    if kind == "werner_combination":
        w = sw.trace_out_sym(shape, op["k"], d)
        return lambda: sw.werner_combination(w)
    if kind == "partial_trace_inner":
        return lambda: sw.partial_trace_inner(ref, op["p"], op["q"])
    if kind == "partial_trace_subsystems":
        return lambda: sw.partial_trace_subsystems(ref, op["k"])
    if kind == "verify_general_dual":
        t = _tableau(shape, op["tableau"])
        return lambda: sw.verify_general_dual(t, op["p"], op["q"])
    return lambda: getattr(sw, kind)(ref)  # schur_weyl_weights, symmetric_average, trace_norm


def _oracle_check(op: dict, result) -> str | None:
    kind, shape, d = op["kind"], tuple(op["shape"]), op.get("d")
    if kind == "verify_general_dual":
        return None if result["pass"] is True else f"report {result}"
    e = sw.dim_unitary(shape, d)
    ef = e * sw.dim_sym(shape)
    if kind in ("young_projector", "partial_trace_inner"):
        want = e
    elif kind in ("schur_weyl_projector", "partial_trace_subsystems"):
        want = ef
    elif kind == "werner_combination":
        want = 1
    elif kind == "schur_weyl_weights":
        if op["of"] == "inner":
            got = {mu: v / e for mu, v in result.items()}
            expect = sw.dual_trace(shape, op["p"], op["q"]).weights
        elif op["of"] == "subsystems":
            got = {mu: v / ef for mu, v in result.items()}
            expect = sw.trace_out_sym(shape, op["k"], d).weights
        else:
            got, expect = result, sw.trace_out_sym(shape, op["k"], d).weights
        return None if got == dict(expect) else f"weights {got} != formula {dict(expect)}"
    elif kind == "symmetric_average":
        block = sw.schur_weyl_projector(shape, d)
        if op["of"] == "young":  # averaging one irrep copy gives the block over f
            block = block * Fraction(1, sw.dim_sym(shape))
        return None if result.same_as(block) else "average differs from the block projector"
    else:  # trace_norm of a projector is its rank
        want = e if op["of"] == "young" else ef
        return None if abs(result - want) <= 1e-6 * want else f"trace norm {result} != {want}"
    return None if result.trace() == want else f"trace {result.trace()} != {want}"


def _oracle(ops: list[dict], tracer) -> tuple[list[float], float, list[str]]:
    last_use = {op["ref"]: i for i, op in enumerate(ops) if "ref" in op}
    results: dict[int, object] = {}
    latencies, failures = [], []
    for i, op in enumerate(ops):
        call = _oracle_call(op, results)
        result, seconds = _timed(tracer, i, call)
        latencies.append(seconds)
        msg = _oracle_check(op, result)
        if msg:
            failures.append(f"{op['kind']} {op.get('shape')} d={op.get('d')}: {msg}")
        if i in last_use:
            results[i] = result
        for ref, last in last_use.items():
            if last == i:
                results.pop(ref, None)
    return latencies, sum(latencies), failures


# --- verify-all ------------------------------------------------------------

def _verify(ops: list[dict], tracer) -> tuple[list[float], float, list[str]]:
    """One operation is one check: every check_* binding gets an outer timer.
    The wall time is that of the whole suite, checks and what runs between them."""
    latencies: list[float] = []
    depth = [0]

    def timer(fn):
        def timed(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    latencies.append(time.perf_counter() - start)
        return timed

    checks = {id(fn): (fn, timer(fn)) for name, fn in vars(verify).items()
              if name.startswith("check_") and callable(fn)}
    tracing.rebind([verify], checks)
    failures, wall = [], 0.0
    for i, op in enumerate(ops):
        reports, seconds = _timed(tracer, i, verify.run_suite, op["suite"], seed=op["seed"])
        wall += seconds
        failures += [f"check {r['check']}: {r}" for r in reports if r.get("pass") is not True]
        if len(reports) != len(latencies):
            failures.append(f"{len(reports)} reports but {len(latencies)} timed checks")
    return latencies, wall, failures


RUNNERS = {"algebra-session": _algebra, "oracle-dense": _oracle, "verify-all": _verify}


def _timed(tracer, op_id: int, fn, *args, **kwargs):
    if tracer is not None:
        tracer.op = op_id
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
    return result, seconds


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job.get("spans"):
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    if not job["ops"]:  # a set-up probe
        print(json.dumps({"ready": ready}))
        return 0
    latencies, wall, failures = RUNNERS[job["workload"]](job["ops"], tracer)
    if tracer is not None:
        tracer.write(Path(job["spans"]), characters)
    print(json.dumps({"ready": ready, "wall": wall, "latencies": latencies,
                      "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
