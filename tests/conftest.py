import time

import pytest

from schurweyl import verify

CHECKS = {name: check for registry in verify.SUITES.values() for name, check in registry.items()}


@pytest.fixture(scope="session")
def check_cases():
    """Report name -> every case its one run yielded, filled by `check_passes`."""
    return {}


@pytest.fixture(scope="session")
def check_passes(check_cases):
    """Assert that a registered verify check passes at seed 0 and return the
    seconds its run took.

    Each check runs at most once per session, however many tests name it;
    later calls return the time of that first run.  The run records the
    cases the check yields in `check_cases`.
    """
    runs: dict[str, tuple[dict, float]] = {}

    def check_passes(name: str) -> float:
        if name not in runs:
            cases = check_cases[name] = []
            tally = verify._tally

            def recording(pairs):
                for case, ok in pairs:
                    cases.append(case)
                    yield case, ok

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_tally", lambda pairs: tally(recording(pairs)))
                t0 = time.monotonic()
                report = verify._run(name, CHECKS[name])
                runs[name] = report, time.monotonic() - t0
        report, elapsed = runs[name]
        assert report["pass"], report
        return elapsed

    return check_passes
