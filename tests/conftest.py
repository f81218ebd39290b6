import pytest

from schurweyl import verify

CHECKS = {name: check for registry in verify.SUITES.values() for name, check in registry.items()}


@pytest.fixture(scope="session")
def check_passes():
    """Assert that a registered verify check passes at seed 0.

    Each check runs at most once per session, however many tests name it.
    """
    reports: dict[str, dict] = {}

    def check_passes(name: str) -> None:
        if name not in reports:
            reports[name] = verify._run(name, CHECKS[name])
        assert reports[name]["pass"], reports[name]

    return check_passes
