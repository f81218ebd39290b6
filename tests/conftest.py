import time

import pytest

from schurweyl import verify

CHECKS = {name: check for registry in verify.SUITES.values() for name, check in registry.items()}


@pytest.fixture(scope="session")
def check_passes():
    """Assert that a registered verify check passes at seed 0 and return the
    seconds its run took.

    Each check runs at most once per session, however many tests name it;
    later calls return the time of that first run.
    """
    runs: dict[str, tuple[dict, float]] = {}

    def check_passes(name: str) -> float:
        if name not in runs:
            t0 = time.monotonic()
            report = verify._run(name, CHECKS[name])
            runs[name] = report, time.monotonic() - t0
        report, elapsed = runs[name]
        assert report["pass"], report
        return elapsed

    return check_passes
