"""Smoke test: every workload at its smallest size prints every metric with its unit.

    python3 perfbench/smoke.py            (or: python3 -m pytest perfbench/smoke.py)

Run from the repository root.  `--seconds 0` gives the minimum number of
passes; the traced run is on cli-cold.  All four workloads run,
including the two that `BENCHMARK.json` does not list.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_metrics(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric
        assert isinstance(got["value"], (int, float)), metric
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in lines), f"{metric['name']} not printed with its unit"


def test_every_metric_prints_with_its_unit() -> None:
    for workload in workloads.WORKLOADS:  # the registered ones and the two kept out
        lines, result = _run(workload, 0)
        _assert_metrics(lines, result, CONFIG["end_to_end"])
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in CONFIG["end_to_end"])
    lines, result = _run("cli-cold", 1)
    _assert_metrics(lines, result, CONFIG["per_layer"])


if __name__ == "__main__":
    test_every_metric_prints_with_its_unit()
    print("ok")
