import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from schurweyl import characters, verify
from schurweyl.partitions import partitions_of

NAMES = [name for registry in verify.SUITES.values() for name in registry]


def test_report_names_are_unique():
    assert len(NAMES) == len(set(NAMES)) == 30


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
    assert verify.BOUNDS["bound-edge-cases"] is verify.check_bound_edges  # restored


def test_character_cache_tolerates_concurrent_use():
    characters.clear_character_cache()
    jobs = [(lam, alpha) for lam in partitions_of(6) for alpha in partitions_of(6)]

    def work(pair):
        return characters.mn_character(*pair)

    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(work, jobs * 4))
    characters.clear_character_cache()
    serial = [characters.mn_character(*pair) for pair in jobs * 4]
    assert threaded == serial
