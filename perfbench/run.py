"""schurweyl benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
One client drives each workload in a closed loop: the next operation starts
when the previous one has returned.  A run makes passes over one seeded
operation list, each pass in fresh processes, until the next pass would end
after --seconds (at least two passes; one untraced and one traced pass with
--trace 1).  Every result is checked exactly, outside the timed intervals.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of the median traced pass with --trace 1.  The lines
before it are the same figures for people, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROCESS_LIMIT_S = 150  # one process; a run must end within 180 s
SETUP_PROBES = 5
CLI = [sys.executable, "-c", "import sys; from schurweyl.cli import main; sys.exit(main())"]

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"), ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Proc:
    """Outcome of one child process: times on the monotonic clock, exit code,
    output and peak resident memory."""

    def __init__(self, argv: list[str], stdin: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.start = time.monotonic()
        p = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                             stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(PROCESS_LIMIT_S, p.kill)
        killer.start()
        err: list[str] = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        try:
            if stdin is not None:
                p.stdin.write(stdin)
                p.stdin.close()
            self.out = p.stdout.read()
            reader.join()
            # wait4 rather than Popen.wait, for the child's own resource usage
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        self.end = time.monotonic()
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
        self.err = err[0] if err else ""
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Pass:
    """One pass over the operation list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall = 0.0
        self.failures: list[str] = []
        self.attempted = 0
        self.rss_mb = 0.0
        self.setup: list[float] = []
        self.span_files: list[Path] = []

    @property
    def failed(self) -> int:
        """Operations that failed; every operation of a pass whose process crashed."""
        return min(len(self.failures), self.attempted) if self.latencies else self.attempted


def _worker_pass(workload: str, ops: list[dict], spans: Path | None) -> Pass:
    job = json.dumps({"workload": workload, "ops": ops, "spans": str(spans) if spans else None})
    proc = Proc([sys.executable, str(HERE / "worker.py")], job)
    out = Pass()
    out.rss_mb = proc.rss_mb
    if proc.code != 0:
        out.failures.append(f"worker exit {proc.code}: {proc.err[-2000:]}")
        out.attempted = len(ops)
        return out
    result = json.loads(proc.out.splitlines()[-1])
    out.setup.append(result["ready"] - proc.start)
    out.latencies = result["latencies"]
    out.attempted = len(out.latencies)  # on verify-all one check is one operation
    out.wall = result["wall"]
    out.failures = result["failures"]
    if spans:
        out.span_files.append(spans)
    return out


def _cli_error(op: dict, proc: Proc) -> str | None:
    if "Traceback" in proc.err:
        return "traceback"
    if proc.code != op["expect"]:
        return f"exit {proc.code}, expected {op['expect']}"
    if op["expect"] != 0:
        return None
    try:
        data = json.loads(proc.out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return _cli_value_error(op["kind"], data)


def _cli_value_error(kind: str, data) -> str | None:
    if kind in ("trace-sym", "trace-dual", "twirl"):
        weights = [Fraction(e["num"], e["den"]) for e in data["weights"]]
        if any(w < 0 for w in weights) or sum(weights) != 1:
            return f"not a state: {weights}"
    elif kind == "chi-poly":
        n = sum(data["lambda"])
        want = factorial(n) if data["lambda"] == data["mu"] else 0
        if data["coeffs"][0] != 0 or sum(data["coeffs"]) != want:
            return f"coefficients {data['coeffs']} break orthogonality"
    elif kind == "chartable":
        if any(len(r["values"]) != len(data["classes"]) for r in data["rows"]):
            return "character table is not square"
    elif kind in ("kron", "dof"):
        if not isinstance(data["value"], int) or data["value"] < 0:
            return f"value {data['value']}"
    elif kind == "table5" and len(data) != 6:
        return f"{len(data)} rows"
    elif kind == "qplus" and not data["q_minus"] < 0 < data["q_plus"]:
        return f"root window {data}"
    return None


def _cli_pass(ops: list[dict], span_dir: Path | None) -> Pass:
    out = Pass()
    for i, op in enumerate(ops):
        if span_dir is None:
            proc = Proc(CLI + op["argv"])
        else:
            spans = span_dir / f"op{i:03d}.json"
            proc = Proc([sys.executable, str(HERE / "cli_traced.py"), str(spans)] + op["argv"])
            out.span_files.append(spans)
        out.latencies.append(proc.seconds)
        out.rss_mb = max(out.rss_mb, proc.rss_mb)
        msg = _cli_error(op, proc)
        if msg:
            out.failures.append(f"schurweyl {' '.join(op['argv'])}: {msg}")
    out.attempted = len(ops)
    out.wall = sum(out.latencies)
    return out


def _setup_probe(workload: str) -> float:
    if workload == "cli-cold":
        proc = Proc(CLI + workloads.SETUP_ARGV)
        if proc.code != 0:
            raise RuntimeError(f"set-up probe failed: {proc.err}")
        return proc.seconds
    proc = Proc([sys.executable, str(HERE / "worker.py")],
                json.dumps({"workload": workload, "ops": []}))
    if proc.code != 0:
        raise RuntimeError(f"set-up probe failed: {proc.err}")
    return json.loads(proc.out)["ready"] - proc.start


def _known_defects() -> list[str]:
    lines = []
    for argv in workloads.KNOWN_DEFECT_ARGV:
        proc = Proc(CLI + argv)
        ok = proc.code == 2 and "Traceback" not in proc.err
        state = "fixed" if ok else "still failing"
        lines.append(f"  schurweyl {' '.join(argv)}: exit {proc.code}, "
                     f"traceback {'Traceback' in proc.err}, {state}")
    return lines


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _environment() -> dict:
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs[:1]:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def _run_passes(workload: str, ops: list[dict], seconds: float, trace: bool,
                span_root: Path) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, and with `trace` traced ones interleaved; each kind
    keeps going while another pass is expected to end within `seconds`."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            spans = None
            if is_traced:
                spans = span_root / f"pass{len(traced)}"
                spans.mkdir(parents=True)
            if workload == "cli-cold":
                p = _cli_pass(ops, spans)
            else:
                p = _worker_pass(workload, ops, spans / "worker.json" if spans else None)
            (traced if is_traced else plain).append(p)
        rounds = len(plain)
        per_round = (time.monotonic() - start) / rounds
        enough = rounds >= (1 if trace else workloads.MIN_PASSES)
        if enough and time.monotonic() - start + per_round > seconds:
            return plain, traced


def _end_to_end(passes: list[Pass], setup: list[float], ops_per_pass: int) -> tuple[dict, list[str]]:
    good = [p for p in passes if p.latencies]  # a crashed pass only counts as failed
    pooled = [x for p in good for x in p.latencies]
    pct = int(100 * (1 - 10 / (workloads.MIN_PASSES * ops_per_pass)))
    tail = _percentile(pooled, pct)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in good),
        "throughput_ops": statistics.median(len(p.latencies) / p.wall for p in good),
        "latency_p50_ms": 1000 * statistics.median(pooled),
        "latency_tail_ms": 1000 * tail,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p.rss_mb for p in good),
    }
    beyond = sum(1 for x in pooled if x > tail)
    notes = [
        f"setup_s: median of {len(setup)} fresh processes",
        f"latency_tail_ms: p{pct}, {beyond} of {len(pooled)} samples beyond it",
        f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations)",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schurweyl" / "__init__.py").is_file():
        print(f"error: no schurweyl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    span_root = OUT / "spans" / args.workload
    shutil.rmtree(span_root, ignore_errors=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: {json.dumps(_environment())}")

    setup = [] if args.trace else [_setup_probe(args.workload) for _ in range(SETUP_PROBES)]
    plain, traced = _run_passes(args.workload, ops, args.seconds, bool(args.trace), span_root)
    every = plain + traced
    good = [p for p in plain if p.latencies]
    if not good or (traced and not any(p.latencies for p in traced)):
        for p in every:
            for msg in p.failures[:5]:
                print(f"failure: {msg}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    ops_per_pass = len(good[0].latencies)
    print(f"loop: closed, 1 client; {len(plain)} untraced and {len(traced)} traced passes of "
          f"{ops_per_pass} operations; repeated queries {workloads.repeat_share(ops):.2f}")

    if args.trace:
        median_wall = statistics.median(p.wall for p in good)
        by_wall = sorted((p for p in traced if p.latencies), key=lambda p: p.wall)
        chosen = by_wall[(len(by_wall) - 1) // 2]
        values = tracing.layer_metrics(chosen.span_files, chosen.wall)
        values["trace.overhead_s"] = chosen.wall - median_wall
        units = dict(tracing.PER_LAYER)
        notes = ["per-layer figures are from the median traced pass; oracle.cells is "
                 "computed from operator sides, not measured"]
    else:
        setup += [s for p in plain for s in p.setup]
        values, notes = _end_to_end(plain, setup, ops_per_pass)
        units = dict(END_TO_END)
        if args.workload == "cli-cold":
            notes.append("known input-contract defects (not operations of this workload):")
            notes += _known_defects()

    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    for p in every:
        for msg in p.failures:
            print(f"failure: {msg}")
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:26s} {shown} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
