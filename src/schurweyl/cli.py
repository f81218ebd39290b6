"""Command-line front end.

Partitions are written as JSON arrays, e.g. "[3,2,1]"; rationals print as
num/den plus a float rendering.  Every cmd_* returns (data, text): data is
the JSON document and text the plain rendering, which csv prints as well.
Only `main` reads --format: json prints data compactly, for every command.
Exit codes: 0 success, 1 verification failure (data carries "pass": false,
which only a verify report does), 2 usage error, 3 resource limit (size
cap or recursion depth).  `verify` reports one {check, lhs, rhs, pass,
cases, failures, counterexample} entry per check.  A --config file's
values become the parser's defaults, so a flag still wins, and every
command runs inside `size_cap(--size-cap)`, so a cap below the floor is
refused whatever the command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .characters import character_row
from .coefficients import kronecker, littlewood_richardson
from .errors import DEFAULT_SIZE_CAP, SizeCapError, size_cap
from .partitions import conjugate, format_partition, parse_partition, partitions_of
from .werner import (
    WernerWeights,
    character_polynomial,
    definetti_bound_dual,
    definetti_bound_sym,
    degrees_of_freedom,
    dual_trace,
    dual_twirl_cycle,
    horn_witness,
    root_range,
    trace_out_sym,
    twirl_power,
)

# the published n=5 table: pairs whose polynomials and integral roots the
# table5 command reproduces; conjugate partners are displayed alongside
TABLE5_PAIRS = [
    ((5,), (5,)),
    ((5,), (4, 1)),
    ((4, 1), (4, 1)),
    ((4, 1), (2, 1, 1, 1)),
    ((5,), (2, 1, 1, 1)),
    ((5,), (1, 1, 1, 1, 1)),
]


FORMATS = ("plain", "json", "csv")


def load_config(path: str) -> dict:
    """key=value file with size_cap, format and seed entries, keyed as the
    parser's destinations so they can become its defaults."""
    out: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in ("size_cap", "seed"):
                out[key] = int(value)
            elif key == "format":
                if value not in FORMATS:
                    raise ValueError(f"unknown format {value!r}")
                out[key] = value
            else:
                raise ValueError(f"unknown config key {key!r}")
    return out


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator} ({float(f):.6g})"


def _weights(w: WernerWeights) -> tuple[dict, str]:
    lines = [f"n={w.n} d={w.d}"]
    for mu, a in w.weights.items():
        lines.append(f"  {format_partition(mu)}: {_frac_str(a)}")
    lines.append(f"  sum: {_frac_str(w.total())}")
    return w.as_json(), "\n".join(lines)


def _roots_str(roots: list[int]) -> str:
    return ",".join(str(r) for r in roots)


def _parse_spectrum(text: str) -> tuple[Fraction, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a spectrum: {text!r}") from exc
    if not isinstance(data, list) or not data:
        raise ValueError(f"not a spectrum: {text!r}")
    try:
        return tuple(Fraction(str(x)) for x in data)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a spectrum: {text!r} divides by zero") from exc


def cmd_chi_poly(args) -> tuple[dict, str]:
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    poly = character_polynomial(lam, mu)
    rr = root_range(lam, mu)
    data = {
        "lambda": list(lam),
        "mu": list(mu),
        "coeffs": list(poly.coeffs),
        "roots": rr.roots,
        "q_minus": rr.q_minus,
        "q_plus": rr.q_plus,
    }
    return data, f"{poly}; integral roots {rr.roots[0]}..{rr.roots[-1]}"


def cmd_table5(args) -> tuple[list, str]:
    rows, lines = [], []
    for lam, mu in TABLE5_PAIRS:
        poly = character_polynomial(lam, mu)
        roots = root_range(lam, mu).roots
        partner = (conjugate(lam), conjugate(mu))
        head = f"{format_partition(lam)},{format_partition(mu)}"
        if partner in ((lam, mu), (mu, lam)):  # same unordered pair
            pair = None
        else:
            pair = [list(partner[0]), list(partner[1])]
            head += f" ; {format_partition(pair[0])},{format_partition(pair[1])}"
        rows.append(
            {
                "lambda": list(lam),
                "mu": list(mu),
                "conjugate_pair": pair,
                "polynomial": str(poly),
                "coeffs": list(poly.coeffs),
                "roots": roots,
            }
        )
        lines.append(f"{head} | {poly} | {_roots_str(roots)}")
    return rows, "\n".join(lines)


def cmd_lr(args) -> tuple[dict, str]:
    value = littlewood_richardson(
        parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
    )
    return {"value": value}, str(value)


def cmd_kron(args) -> tuple[dict, str]:
    value = kronecker(
        parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
    )
    return {"value": value}, str(value)


def cmd_trace(args) -> tuple[dict, str]:
    lam = parse_partition(args.lam)
    if args.sym is not None:
        k, d = args.sym
        return _weights(trace_out_sym(lam, k, d))
    p, q = args.dual
    return _weights(dual_trace(lam, p, q))


def cmd_twirl(args) -> tuple[dict, str]:
    return _weights(twirl_power(_parse_spectrum(args.spectrum), args.k))


def cmd_dual_twirl(args) -> tuple[dict, str]:
    return _weights(dual_twirl_cycle(parse_partition(args.alpha), args.d))


def cmd_bound(args) -> tuple[dict, str]:
    if args.dual is not None:
        n, q = args.dual
        value = definetti_bound_dual(n, q)
        data = {"kind": "dual", "n": n, "q": q}
    else:
        k, lam_min = args.sym
        value = definetti_bound_sym(k, lam_min)
        data = {"kind": "sym", "k": k, "lambda_min": lam_min}
    data.update(num=value.numerator, den=value.denominator, value=float(value))
    return data, _frac_str(value)


def cmd_dof(args) -> tuple[dict, str]:
    value = degrees_of_freedom(args.n, args.d, args.kind)
    return {"n": args.n, "d": args.d, "kind": args.kind, "value": value}, str(value)


def cmd_qplus(args) -> tuple[dict, str]:
    rr = root_range(parse_partition(args.lam), parse_partition(args.mu))
    data = {"q_minus": rr.q_minus, "q_plus": rr.q_plus, "roots": rr.roots}
    return data, f"q+={rr.q_plus} q-={rr.q_minus} roots={_roots_str(rr.roots)}"


def cmd_horn(args) -> tuple[dict, str]:
    witness = horn_witness(parse_partition(args.lam), parse_partition(args.mu))
    if witness is None:
        return {"witness": None}, "none"
    data = {"witness": {"a": list(witness.a), "b": list(witness.b), "c": list(witness.c)}}
    return data, f"A=diag{witness.a}\nB=diag{witness.b}\nC=diag{witness.c}"


def cmd_chartable(args) -> tuple[dict, str]:
    parts = partitions_of(args.n)
    rows = {lam: character_row(lam) for lam in parts}
    data = {
        "n": args.n,
        "classes": [list(a) for a in parts],
        "rows": [{"partition": list(lam), "values": row} for lam, row in rows.items()],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda\\alpha"] + [format_partition(a) for a in parts])
    for lam, row in rows.items():
        writer.writerow([format_partition(lam)] + [str(v) for v in row])
    return data, buf.getvalue().rstrip("\n")


def cmd_verify(args) -> tuple[dict, str]:
    from . import verify  # loads numpy, which no other command needs

    reports = verify.run_suite(args.suite, seed=args.seed)
    data = {"suite": args.suite, "pass": all(r["pass"] for r in reports), "checks": reports}
    return data, json.dumps(data, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurweyl",
        description="Exact Schur-Weyl duality combinatorics and dense verification.",
    )
    parser.add_argument("--format", choices=FORMATS, default="plain")
    parser.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                        help="dense operator side-length cap (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling order seed for randomized checks")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None, help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-poly", help="character polynomial and its root window")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_chi_poly)

    p = sub.add_parser("table5", help="the six published polynomials for n=5")
    p.set_defaults(func=cmd_table5)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("kron", help="Kronecker coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("trace", help="partial-trace weights of a block state")
    p.add_argument("lam")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sym", nargs=2, type=int, metavar=("K", "D"),
                       help="keep K of the subsystems, local dimension D")
    group.add_argument("--dual", nargs=2, type=int, metavar=("P", "Q"),
                       help="trace out C^Q from each C^P x C^Q subsystem")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("twirl", help="twirled power state weights from a spectrum")
    p.add_argument("spectrum", help='JSON array, e.g. \'["2/3","1/3"]\'')
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("dual-twirl", help="symmetrised cycle operator weights")
    p.add_argument("alpha", help="cycle type as a partition")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_dual_twirl)

    p = sub.add_parser("bound", help="distance bounds for the two trace maps")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dual", nargs=2, type=int, metavar=("N", "Q"))
    group.add_argument("--sym", nargs=2, type=int, metavar=("K", "LAMBDA_MIN"))
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("dof", help="degrees of freedom of Werner/symmetric states")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--kind", choices=["werner", "symmetric"], default="werner")
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("qplus", help="integral root window of a character polynomial")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_qplus)

    p = sub.add_parser("horn", help="diagonal Hermitian witness A + B = C")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_horn)

    p = sub.add_parser("chartable", help="full character table for one n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="formulas | bounds | oracle | all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become defaults, so a flag still wins
            parser.set_defaults(**load_config(args.config))
            args = parser.parse_args(argv)
        with size_cap(args.size_cap):
            data, text = args.func(args)
        if args.format == "json":
            text = json.dumps(data)
        code = 1 if isinstance(data, dict) and data.get("pass") is False else 0
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            return code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input too deep (recursion limit reached)", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # a bad --config or --out file is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
    except BrokenPipeError:
        # the reader closed early (e.g. `| head`); keep the exit-time
        # flush of sys.stdout from raising again
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
