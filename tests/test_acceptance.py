"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact unless the criterion itself states a float
tolerance.  Wall-clock budgets are asserted alongside the math.  Criteria
3-10 are registered `verify` checks run within their budgets.
"""

import time
from fractions import Fraction
from pathlib import Path

from schurweyl import verify
from schurweyl.werner import (
    character_polynomial,
    dual_trace,
    fully_mixed,
    root_range,
    trace_distance,
)

GOLDEN = Path(__file__).parent / "data" / "table5_golden.txt"

# published n=5 table rows: (lambda, mu) -> ascending coefficients, roots
TABLE5_EXPECTED = [
    (((5,), (5,)), [0, 24, 50, 35, 10, 1], [-4, -3, -2, -1, 0]),
    (((5,), (4, 1)), [0, -24, -20, 20, 20, 4], [-3, -2, -1, 0, 1]),
    (((4, 1), (4, 1)), [0, 24, 20, 20, 40, 16], [-2, -1, 0]),
    (((4, 1), (2, 1, 1, 1)), [0, 24, -20, 20, -40, 16], [0, 1, 2]),
    (((5,), (2, 1, 1, 1)), [0, -24, 20, 20, -20, 4], [-1, 0, 1, 2, 3]),
    (((5,), (1, 1, 1, 1, 1)), [0, 24, -50, 35, -10, 1], [0, 1, 2, 3, 4]),
]


def _criterion(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num:2d}: PASS ({elapsed:6.2f}s) {label}")


def test_criterion_01_table_reproduction(capsys):
    t0 = time.monotonic()
    from schurweyl.cli import main

    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN.read_text()
    for (lam, mu), coeffs, roots in TABLE5_EXPECTED:
        assert character_polynomial(lam, mu).coeffs == coeffs
        assert root_range(lam, mu).roots == roots
    with capsys.disabled():
        _criterion(1, "published n=5 polynomial table, exact", t0, 1.0)


def test_criterion_02_two_copy_worked_example(capsys):
    t0 = time.monotonic()
    for p in range(2, 6):
        for q in range(2, 6):
            w = dual_trace((2,), p, q)
            den = 2 * (p * q + 1)
            assert w.weight((2,)) == Fraction((p + 1) * (q + 1), den)
            assert w.weight((1, 1)) == Fraction((p - 1) * (q - 1), den)
            dist = trace_distance(w, fully_mixed(2, p))
            assert dist == Fraction(p * p - 1, p * p * q + p)
    with capsys.disabled():
        _criterion(2, "two-copy inner trace closed form, exact", t0, 1.0)


CHECKS = {name: check for registry in verify.SUITES.values() for name, check in registry.items()}

# test -> (criterion, label, wall-clock budget in seconds, registered checks)
REGISTERED_CRITERIA = {
    "test_criterion_03_dual_trace_oracle":
        (3, "dense inner trace equals weight formula, exact", 60.0, ["inner-trace-oracle"]),
    "test_criterion_04_subsystem_trace_oracle":
        (4, "dense subsystem trace equals weight formula, exact", 60.0,
         ["subsystem-trace-oracle"]),
    "test_criterion_05_dual_definetti_bound":
        (5, "inner-trace distance bound, all diagrams in range", 120.0,
         ["dual-definetti-weight-sweep", "general-dual-definetti"]),
    "test_criterion_06_dual_twirl":
        (6, "symmetrised cycle operators, incl. (10/27, 0, -1/27)", 10.0,
         ["cycle-operator-oracle"]),
    "test_criterion_07_inner_sum_identities":
        (7, "inner-sum identities, three paths, exact", 60.0,
         ["inner-sum-subsystem", "inner-sum-inner-trace"]),
    "test_criterion_08_root_structure":
        (8, "integral-root windows and conjugation identities", 30.0,
         ["root-structure", "character-polynomial-symmetries"]),
    "test_criterion_09_character_infrastructure":
        (9, "character tables, orthogonality and dimensions", 30.0,
         ["character-orthogonality", "dimension-identities"]),
    "test_criterion_10_asymptotic_regime":
        (10, "asymptotics via scaling checks, not equalities", 30.0,
         ["shifted-schur-scaling-limit"]),
}


def _registered_criterion(num: int, label: str, budget: float, names: list[str]):
    def test(capsys):
        t0 = time.monotonic()
        for name in names:
            report = verify._run(name, CHECKS[name])
            assert report["pass"], report
        with capsys.disabled():
            _criterion(num, label, t0, budget)

    return test


for _test, _spec in REGISTERED_CRITERIA.items():
    globals()[_test] = _registered_criterion(*_spec)
