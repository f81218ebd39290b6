"""Import contract: numpy is loaded only by the dense oracle and `verify`.

Each test runs a fresh interpreter, because this one has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

# one argv per algebraic subcommand; each must run without loading numpy
ALGEBRAIC_ARGV = [
    ["kron", "[3,2,1]", "[3,2,1]", "[4,2]"],
    ["--format", "json", "chi-poly", "[4,1]", "[2,1,1,1]"],
    ["qplus", "[4,1]", "[2,1,1,1]"],
    ["table5"],
    ["chartable", "5"],
    ["trace", "[6,4,2]", "--sym", "2", "3"],
    ["trace", "[2,1]", "--dual", "2", "3"],
    ["twirl", '["2/3","1/3"]', "3"],
    ["dof", "4", "3", "--kind", "symmetric"],
    ["bound", "--dual", "2", "4"],
    ["--size-cap", "128", "trace", "[2,1]", "--sym", "2", "2"],  # entering the cap needs no numpy
]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_algebraic_commands_do_not_import_numpy():
    # nor dataclasses, which loads inspect, nor typing: start-up is paid by
    # every cold process.  -S keeps site .pth imports from loading them first.
    script = f"""
import sys
from schurweyl.cli import main
for argv in {ALGEBRAIC_ARGV!r}:
    assert main(argv) == 0, argv
    assert not {{"numpy", "dataclasses", "typing"}} & set(sys.modules), argv
"""
    run = _python("-S", "-c", script)
    assert run.returncode == 0, run.stderr


def test_package_names_resolve_and_load_the_oracle_on_first_use():
    script = """
import sys
import schurweyl
assert "numpy" not in sys.modules
from schurweyl import oracle
for name in schurweyl.__all__:
    value = getattr(schurweyl, name)
    if hasattr(oracle, name):
        assert value is getattr(oracle, name), name
namespace = {}
exec("from schurweyl import *", namespace)
assert set(schurweyl.__all__) <= set(namespace)
try:
    schurweyl.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("unknown attribute resolved")
"""
    run = _python("-c", script)
    assert run.returncode == 0, run.stderr


def test_refused_verify_argv_exit_2_without_a_traceback():
    for argv in (["verify", "bogus"], ["--size-cap", "60", "verify", "bounds"]):
        run = _python("-m", "schurweyl.cli", *argv)
        assert run.returncode == 2, argv
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr, run.stderr
