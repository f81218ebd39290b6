import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from schurweyl import characters, verify
from schurweyl.coefficients import kronecker
from schurweyl.partitions import partitions_of

NAMES = [name for registry in verify.SUITES.values() for name in registry]


def test_report_names_are_unique():
    assert len(NAMES) == len(set(NAMES)) == 31
    # a report name is spelt once, in its check's function name
    for registry in verify.SUITES.values():
        for name, check in registry.items():
            assert check.__name__ == "check_" + name.replace("-", "_")
            assert getattr(verify, check.__name__) is check


@pytest.mark.parametrize("name", NAMES)
def test_registered_check_passes(name, check_passes):
    check_passes(name)


def test_registered_checks_yield_json_cases(check_passes, check_cases):
    # a counterexample is reported as data, so every case must serialise
    rejected = {}
    for name in NAMES:
        check_passes(name)
        for case in check_cases[name]:
            try:
                json.dumps(case)
            except (TypeError, ValueError):
                rejected.setdefault(name, repr(case))
    assert not rejected


def test_dual_trace_paths_catches_a_shifted_dual_trace(monkeypatch):
    # negative control: the row product evaluated at q + 1 no longer matches
    # the Kronecker sum at q, and the report names a (lam, p, q) case
    true_dual_trace = verify.dual_trace
    monkeypatch.setattr(verify, "dual_trace", lambda lam, p, q: true_dual_trace(lam, p, q + 1))
    rep = verify.check_dual_trace_paths(seed=0)
    assert not rep["pass"] and rep["failures"] > 0 and rep["cases"] == 252
    lam, p, q = rep["counterexample"]
    assert sum(lam) >= 1 and lam in partitions_of(sum(lam), p * q)
    assert 1 <= p <= 4 and 1 <= q <= 4


def test_kronecker_restriction_catches_one_wrong_coefficient(monkeypatch):
    # negative control: g + 1 on one triple with a two-row nu breaks Young's
    # side at that (lam, mu) for every k that reaches nu
    true_kronecker = verify.kronecker
    monkeypatch.setattr(verify, "kronecker", lambda lam, mu, nu: true_kronecker(lam, mu, nu)
                        + ((lam, mu, nu) == ((2, 1), (2, 1), (2, 1))))
    rep = verify.check_kronecker_restriction(seed=0)
    assert not rep["pass"] and rep["failures"] > 0 and rep["cases"] == 733
    lam, mu, k = rep["counterexample"]
    n = sum(lam)
    assert 1 <= n <= 6 and lam in partitions_of(n) and mu in partitions_of(n)
    assert 0 <= k <= n // 2


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def _boom(*, seed):
    raise RuntimeError("boom")


def test_crashing_check_becomes_a_failed_report():
    rep = verify._run("boom", _boom)
    assert rep == {
        "check": "boom",
        "lhs": "exception: boom",
        "rhs": "0 failures",
        "pass": False,
    }


def test_crashing_check_reports_under_its_registered_name(monkeypatch):
    monkeypatch.setitem(verify.BOUNDS, "bound-edge-cases", _boom)
    reports = verify.run_suite("bounds")
    assert [r["check"] for r in reports] == list(verify.BOUNDS)
    assert reports[-1]["lhs"] == "exception: boom" and not reports[-1]["pass"]


def test_every_check_call_goes_through_a_rebindable_binding(monkeypatch):
    # the benchmark times one operation per check by rebinding each check_*
    # wherever verify binds it; a check reached any other way goes untimed
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracing

    # each call must also do the check's work and return its counted report:
    # a check that hands back a generator would be timed before it ran
    results = []

    def counting(fn):
        def counted(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]
        return counted

    wrapped = {id(fn): (fn, counting(fn)) for name, fn in vars(verify).items()
               if name.startswith("check_") and callable(fn)}
    tracing.rebind([verify], wrapped)
    try:
        reports = verify.run_suite("bounds")
    finally:
        tracing.rebind([verify], {id(new): (new, old) for old, new in wrapped.values()})
    assert len(results) == len(reports) == len(verify.BOUNDS)
    for result in results:
        assert isinstance(result, dict) and {"pass", "cases", "failures"} <= set(result)
    assert verify.BOUNDS["bound-edge-cases"] is verify.check_bound_edge_cases  # restored


def test_character_cache_tolerates_concurrent_use():
    characters.clear_character_cache()
    parts = partitions_of(6)
    jobs = [(lam, alpha) for lam in parts for alpha in parts]
    triples = [(lam, mu, nu) for lam in parts for mu in parts for nu in parts[::2]]

    def work(pair):
        return characters.mn_character(*pair)

    def couple(triple):
        return kronecker(*triple)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo fills
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(work, jobs * 4))
            characters.clear_character_cache()
            threaded_kron = list(pool.map(couple, triples * 2))
    finally:
        sys.setswitchinterval(interval)
    characters.clear_character_cache()
    serial = [characters.mn_character(*pair) for pair in jobs * 4]
    serial_kron = [kronecker(*triple) for triple in triples * 2]
    assert threaded == serial
    assert threaded_kron == serial_kron
