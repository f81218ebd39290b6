"""Spans around the calls into each schurweyl module, recorded by the benchmark.

Every public module-level function of a layer module is replaced, wherever a
caller has bound it (module globals, the package namespace, and module-level
lists, tuples and dicts such as a check registry), by a wrapper that records
one span: name, start, end, parent span, operation id and one integer measure
of the result.  Spans stay in memory and are written out when the process
ends; `layer_metrics` derives self times and counts from the written files.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from types import ModuleType

LAYERS = ("partitions", "characters", "coefficients", "symfunc", "werner", "oracle",
          "verify", "cli")

# the oracle splits into operator construction and measurement on operators
ORACLE_BUILD = {"schur_weyl_projector", "young_projector", "permutation_operator",
                "werner_combination"}
ORACLE_MEASURE = {"partial_trace_subsystems", "partial_trace_inner", "symmetric_average",
                  "schur_weyl_weights", "trace_norm"}


def _side(result) -> int:
    """Matrix side of a returned dense operator, 0 for anything else."""
    mat = getattr(result, "mat", None)
    return int(mat.shape[0]) if mat is not None and hasattr(mat, "shape") else 0


def _failed_report(result) -> int:
    return int(isinstance(result, dict) and result.get("pass") is False)


def _measure(layer: str, name: str):
    """The integer a span records from its call's result, if any."""
    if layer == "oracle":
        return _side
    if name == "partitions_of":
        return len
    if name.startswith("check_"):
        return _failed_report
    return None


def rebind(modules: list[ModuleType], replace: dict[int, tuple[object, object]]) -> None:
    """Point every binding of an old object (keyed by id) at its replacement."""

    def swap(value):
        hit = replace.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    # containers are only written where an entry actually changes, so data
    # such as the character memo is never touched
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, name, swap(value))
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    if swap(v) is not v:
                        value[i] = swap(v)
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, v in list(value.items()):
                    if swap(v) is not v:
                        value[key] = swap(v)
            elif isinstance(value, tuple) and any(swap(v) is not v for v in value):
                setattr(mod, name, tuple(swap(v) for v in value))


def program_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "schurweyl" or name.startswith("schurweyl."))]


class Tracer:
    """Span recorder; spans are (name id, start ns, end ns, parent, op, measure)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False

    def wrap(self, name: str, fn, measure=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            slot = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (name_id, start, end, parent, self.op, 0)
            if measure is not None:
                spans[slot] = (name_id, start, end, parent, self.op, measure(result))
            return result

        return traced

    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            importlib.import_module(f"schurweyl.{layer}")
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"schurweyl.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                replace[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn, _measure(layer, name)))
        rebind(program_modules(), replace)

    def write(self, path: Path, characters: ModuleType) -> None:
        """Dump the spans as one JSON document: the name table, one row per
        span, and the size of the character memo, which is only read."""
        memo = len(getattr(characters, "_char_cache", ()))
        path.write_text(json.dumps({"names": self.names, "spans": self.spans,
                                    "memo_entries": memo}))


def layer_of(name: str) -> str:
    module, func = name.split(".", 1)
    if module != "oracle":
        return module
    if func in ORACLE_BUILD:
        return "oracle.build"
    if func in ORACLE_MEASURE:
        return "oracle.measure"
    return "oracle.other"


# per-layer metric names in report order, with their units
PER_LAYER = [
    ("partitions.self_s", "s"), ("partitions.calls", "count"),
    ("partitions.enumerated", "count"),
    ("characters.self_s", "s"), ("characters.calls", "count"),
    ("characters.memo_entries", "count"),
    ("coefficients.self_s", "s"), ("coefficients.calls", "count"),
    ("symfunc.self_s", "s"), ("symfunc.calls", "count"),
    ("werner.self_s", "s"), ("werner.calls", "count"),
    ("oracle.build_s", "s"), ("oracle.measure_s", "s"), ("oracle.other_s", "s"),
    ("oracle.calls", "count"), ("oracle.max_side", "count"),
    ("oracle.cells", "cells-computed"),
    ("verify.self_s", "s"), ("verify.checks", "count"), ("verify.failed", "count"),
    ("cli.self_s", "s"), ("cli.calls", "count"),
    ("trace.wall_s", "s"), ("trace.outside_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

_SELF_KEY = {"oracle.build": "oracle.build_s", "oracle.measure": "oracle.measure_s",
             "oracle.other": "oracle.other_s"}


def layer_metrics(span_files: list[Path], wall_s: float) -> dict[str, float]:
    """Self time and counts per layer from the span files of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children.  `trace.outside_s` is the part of the pass's timed wall time
    that no span covers (operation dispatch, and process start for the CLI).
    """
    out = {name: 0 for name, _ in PER_LAYER}
    covered_ns = 0
    for path in span_files:
        data = json.loads(path.read_text())
        layers = [layer_of(n) for n in data["names"]]
        names = data["names"]
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _op, _m in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                covered_ns += end - start
        for i, (name_id, start, end, _parent, _op, measure) in enumerate(spans):
            layer = layers[name_id]
            self_s = (end - start - child_ns[i]) / 1e9
            out[_SELF_KEY.get(layer, f"{layer}.self_s")] += self_s
            module = layer.split(".")[0]
            if module == "oracle":
                out["oracle.calls"] += 1
            elif module == "verify":
                if names[name_id].startswith("verify.check_"):
                    out["verify.checks"] += 1
                    out["verify.failed"] += measure
            else:
                out[f"{module}.calls"] += 1
            if names[name_id] == "partitions.partitions_of":
                out["partitions.enumerated"] += measure
            if module == "oracle" and measure:
                out["oracle.max_side"] = max(out["oracle.max_side"], measure)
                out["oracle.cells"] += measure * measure
        out["trace.spans"] += len(spans)
        out["characters.memo_entries"] += data["memo_entries"]
    out["trace.wall_s"] = wall_s
    out["trace.outside_s"] = wall_s - covered_ns / 1e9
    return out
