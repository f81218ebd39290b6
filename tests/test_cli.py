import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from schurweyl import characters
from schurweyl.cli import FORMATS, load_config, main
from schurweyl.errors import size_cap
from schurweyl.partitions import partitions_of
from schurweyl.werner import IntPolynomial

GOLDEN = Path(__file__).parent / "data" / "table5_golden.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def printed_weights(out):
    return {tuple(e["partition"]): (e["num"], e["den"]) for e in json.loads(out)["weights"]}


def test_table5_is_deterministic(capsys):
    _, first = run_cli(capsys, "table5")
    _, second = run_cli(capsys, "table5")
    assert first == second


def test_table5_json_roundtrip(capsys):
    code, out = run_cli(capsys, "--format", "json", "table5")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    for row in rows:
        poly = IntPolynomial(row["coeffs"])
        assert str(poly) == row["polynomial"]
        for q in row["roots"]:
            assert poly(q) == 0


def test_chi_poly_plain(capsys):
    code, out = run_cli(capsys, "chi-poly", "[5]", "[5]")
    assert code == 0
    assert out == "q^5+10q^4+35q^3+50q^2+24q; integral roots -4..0\n"
    code, out = run_cli(capsys, "chi-poly", "[5]", "[1,1,1,1,1]")
    assert "integral roots 0..4" in out
    code, out = run_cli(capsys, "chi-poly", "[2]", "[1,1]")
    assert out == "q^2-q; integral roots 0..1\n"


def test_chi_poly_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "chi-poly", "[4,1]", "[2,1,1,1]")
    data = json.loads(out)
    assert data["coeffs"] == [0, 24, -20, 20, -40, 16]
    assert data["roots"] == [0, 1, 2]
    assert data["q_plus"] == 3 and data["q_minus"] == -1


def test_lr_and_kron(capsys):
    assert run_cli(capsys, "lr", "[2,1]", "[1]", "[2]") == (0, "1\n")
    assert run_cli(capsys, "lr", "[2,1]", "[1]", "[1]") == (0, "0\n")
    assert run_cli(capsys, "kron", "[2,1]", "[2,1]", "[2,1]") == (0, "1\n")
    code, out = run_cli(capsys, "--format", "json", "kron", "[3]", "[3]", "[3]")
    assert json.loads(out) == {"value": 1}


def test_trace_commands(capsys):
    code, out = run_cli(capsys, "--format", "json", "trace", "[2]", "--dual", "2", "3")
    assert printed_weights(out)[(2,)] == (6, 7)
    code, out = run_cli(capsys, "trace", "[2,1]", "--sym", "2", "2")
    assert "[2]: 1/2" in out and "sum: 1/1" in out


def test_trace_sym_is_sized_by_the_diagram_not_by_d(fresh_python):
    # every factorial determinant has side min(rows, columns) of lam, so a
    # large d or a long column costs what a small one does
    for argv, want in ((["[2,1]", "--sym", "2", "10000"], {(2,): (1, 2), (1, 1): (1, 2)}),
                       ([json.dumps([1] * 300), "--sym", "2", "300"], {(2,): (0, 1), (1, 1): (1, 1)})):
        run = fresh_python("-m", "schurweyl.cli", "--format", "json", "trace", *argv, timeout=10)
        assert run.returncode == 0, run.stderr
        assert printed_weights(run.stdout) == want


def test_twirl_and_dual_twirl(capsys):
    code, out = run_cli(capsys, "--format", "json", "twirl", '["2/3","1/3"]', "2")
    assert printed_weights(out)[(2,)] == (7, 9)
    code, out = run_cli(capsys, "dual-twirl", "[2,1]", "3")
    assert "-1/27" in out and code == 0
    assert run_cli(capsys, "dual-twirl", "[1,2]", "3") == (0, out)  # lengths in any order


def test_bound_and_dof(capsys):
    assert run_cli(capsys, "bound", "--dual", "1", "9")[1] == "0/1 (0)\n"
    assert run_cli(capsys, "bound", "--dual", "2", "2")[1] == "3/2 (1.5)\n"
    assert run_cli(capsys, "bound", "--sym", "1", "4")[1] == "0/1 (0)\n"
    assert run_cli(capsys, "dof", "2", "2", "--kind", "symmetric")[1] == "9\n"
    assert run_cli(capsys, "dof", "2", "3")[1] == "1\n"


def test_qplus_and_horn(capsys):
    code, out = run_cli(capsys, "qplus", "[4,1]", "[2,1,1,1]")
    assert out == "q+=3 q-=-1 roots=0,1,2\n"
    code, out = run_cli(capsys, "--format", "json", "horn", "[2,1]", "[1]")
    assert json.loads(out)["witness"] == {"a": [1, 0], "b": [1, 1], "c": [2, 1]}
    code, out = run_cli(capsys, "horn", "[3,1]", "[2,2]")
    assert out == "none\n"


def test_horn_is_sized_by_the_rows_not_by_the_boxes(fresh_python):
    # the witness spectra have rows(lam) entries, so a one-row diagram of
    # two million boxes prints three one-entry diagonals at once
    run = fresh_python("-m", "schurweyl.cli", "horn", "[2000000]", "[1]", timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "A=diag(1,)\nB=diag(1999999,)\nC=diag(2000000,)\n"
    assert len(run.stdout) < 200


def test_chartable_csv(capsys):
    code, out = run_cli(capsys, "chartable", "3")
    lines = out.strip().split("\n")
    assert lines[0] == 'lambda\\alpha,[3],"[2,1]","[1,1,1]"'
    assert lines[2] == '"[2,1]",-1,0,2'
    code, out = run_cli(capsys, "--format", "json", "chartable", "3")
    data = json.loads(out)
    assert data["rows"][1]["values"] == [-1, 0, 2]


def test_chartable_prints_csv_for_every_format_but_json(capsys):
    outputs = {run_cli(capsys, *flags, "chartable", "4")
               for flags in ((), ("--format", "plain"), ("--format", "csv"))}
    assert len(outputs) == 1
    (code, out), = outputs
    assert code == 0 and out.startswith('lambda\\alpha,[4],"[3,1]"')


# one successful argv per subcommand
FORMAT_ARGV = [
    ["chi-poly", "[4,1]", "[2,1,1,1]"],
    ["table5"],
    ["lr", "[3,2,1]", "[2,1]", "[2,1]"],
    ["kron", "[2,1]", "[2,1]", "[2,1]"],
    ["trace", "[2,1]", "--sym", "2", "2"],
    ["twirl", '["2/3","1/3"]', "2"],
    ["dual-twirl", "[2,1]", "3"],
    ["bound", "--dual", "2", "4"],
    ["dof", "3", "2"],
    ["qplus", "[4,1]", "[2,1,1,1]"],
    ["horn", "[2,1]", "[1]"],
    ["chartable", "3"],
    ["verify", "bounds"],
]


@pytest.mark.parametrize("argv", FORMAT_ARGV, ids=lambda argv: argv[0])
def test_every_command_obeys_the_format_contract(capsys, argv):
    plain = run_cli(capsys, "--format", "plain", *argv)
    assert plain[0] == 0
    assert run_cli(capsys, "--format", "csv", *argv) == plain
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0 and out.count("\n") == 1
    json.loads(out)


def test_format_table_covers_every_subcommand():
    assert {argv[0] for argv in FORMAT_ARGV} == set(_COMMANDS)


def test_usage_errors(capsys):
    assert main(["lr", "[2,1", "[1]", "[2]"]) == 2
    assert main(["trace", "[2,1,1]", "--sym", "2", "2"]) == 2  # rows exceed d
    assert main(["dual-twirl", "[2,1]", "0"]) == 2  # d = 0
    assert main(["dof", "3", "0"]) == 2
    # non-positive local dimensions are usage errors, not consistency failures
    for argv in (["trace", "[2,1]", "--dual", "-1", "-3"], ["trace", "[1]", "--dual", "-1", "-1"],
                 ["trace", "[2,1]", "--dual", "0", "2"], ["trace", "[2,1]", "--sym", "2", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be positive" in err and "Traceback" not in err
    # rows that are not integers are not rounded or read as 0/1
    for argv in (["kron", "[true]", "[1]", "[1]"], ["chi-poly", "[2.5]", "[2]"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be integers" in err and "Traceback" not in err
    assert main(["twirl", '["1/0"]', "2"]) == 2  # a spectrum entry that divides by zero
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_closed_stdout_is_not_a_traceback(monkeypatch):
    # `schurweyl chartable 8 | head -1`: the reader goes away mid-output
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["chartable", "8"]) == 0
    # later writes, like the flush at exit, go to the null device
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_size_cap_exit_code(capsys):
    # a verify oracle run under a tiny cap trips the resource error
    from schurweyl.errors import SizeCapError
    from schurweyl.oracle import permutation_operator

    with size_cap(64), pytest.raises(SizeCapError):
        permutation_operator((0, 1, 2, 3), 3)
    assert main(["--size-cap", "60", "verify", "bounds"]) == 2  # cap below floor
    assert main(["--size-cap", "60", "table5"]) == 2  # checked for every command
    assert main(["--size-cap", "64", "verify", "oracle"]) == 3  # checks need 81


def test_deep_inputs_hit_a_resource_limit(capsys):
    # LR tableaux are counted row by row, so a long row costs no depth
    assert run_cli(capsys, "lr", "[1200]", "[100]", "[1100]") == (0, "1\n")
    # the MN recursion still descends once per part >= 2
    assert main(["dual-twirl", json.dumps([2] * 1200), "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_an_answer_beyond_the_digit_limit_is_a_resource_limit(capsys):
    # the exact bound has 6602 digits: a valid query, not a usage error
    for fmt in ("plain", "json"):
        assert main(["--format", fmt, "bound", "--dual", "2000", "2000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{sys.get_int_max_str_digits()} digits" in captured.err


def test_deep_all_ones_cycle_type_answers(capsys):
    # the MN recursion stops at an all-ones remainder, so fixed points cost no depth
    code, out = run_cli(capsys, "--format", "json", "dual-twirl", json.dumps([1] * 1000), "2")
    assert code == 0
    assert sum(Fraction(num, den) for num, den in printed_weights(out).values()) == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["--out", str(target), "chi-poly", "[2]", "[2]"])
    assert code == 0
    assert target.read_text() == "q^2+q; integral roots -1..0\n"
    assert capsys.readouterr().out == ""


def test_out_file_in_missing_directory(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "missing" / "x.txt"), "table5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsize_cap=128\nformat=json\nseed=5\n")
    assert load_config(str(cfg)) == {"size_cap": 128, "format": "json", "seed": 5}
    code, out = run_cli(capsys, "--config", str(cfg), "bound", "--dual", "2", "1000")
    data = json.loads(out)
    assert data["num"] == 1999 and data["den"] == 500000
    # a flag wins over the file
    code, out = run_cli(capsys, "--format", "plain", "--config", str(cfg),
                        "bound", "--dual", "2", "4")
    assert (code, out) == (0, "7/8 (0.875)\n")
    for text in ("nonsense\n", "size_cap=32\n", "format=xml\n"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["--config", str(bad), "table5"]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_bounds_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "bounds")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and all(c["pass"] for c in report["checks"])


def test_verify_detects_poisoned_character(capsys):
    # corrupt one memoized character value; orthogonality must name the failure
    lam, alpha = (2, 1), (1, 1, 1)
    characters.clear_character_cache()
    characters.mn_character(lam, alpha)
    characters._char_cache[characters._beta_set(lam), alpha] = 5
    try:
        code, out = run_cli(capsys, "verify", "formulas")
        assert code == 1
        report = json.loads(out)
        failed = {c["check"]: c for c in report["checks"] if not c["pass"]}
        assert "character-orthogonality" in failed
        # n = 3 is the first table that reads the poisoned entry
        assert failed["character-orthogonality"]["failures"] >= 1
        assert failed["character-orthogonality"]["counterexample"] == 3
    finally:
        characters.clear_character_cache()


# --- the exit-code contract over a bounded argv grammar --------------------

_PARTITIONS = [json.dumps(list(lam)) for n in range(7) for lam in partitions_of(n)]
_BAD_PARTITIONS = ["[2,1", "[true]", "[2.5]", "[-1]", "[0]", "[1,2]", "[[1]]", "null", '"3"',
                   "{}", "[1e400]", ""]
partition = st.sampled_from(_PARTITIONS) | st.sampled_from(_BAD_PARTITIONS)
small_int = st.integers(-2, 7).map(str) | st.sampled_from(["x", "1.5", "true", ""])
spectrum = (st.lists(st.sampled_from(['"1/2"', '"1/3"', '"2/3"', "1", "0", "-1", '"1/0"',
                                      "0.5", "true", "null", '"a"']),
                     min_size=0, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]")
            | st.sampled_from(["not json", "1", "{}", '"1/2"']))
_COMMANDS = {
    "chi-poly": st.tuples(partition, partition),
    "table5": st.just(()),
    "lr": st.tuples(partition, partition, partition),
    "kron": st.tuples(partition, partition, partition),
    "trace": st.tuples(partition, st.sampled_from(["--sym", "--dual"]), small_int, small_int),
    "twirl": st.tuples(spectrum, small_int),
    "dual-twirl": st.tuples(partition, small_int),
    "bound": st.tuples(st.sampled_from(["--sym", "--dual"]), small_int, small_int),
    "dof": st.tuples(small_int, small_int, st.sampled_from(["werner", "symmetric", "other"])
                     .map(lambda kind: f"--kind={kind}")),
    "qplus": st.tuples(partition, partition),
    "horn": st.tuples(partition, partition),
    "chartable": st.tuples(small_int),
    "verify": st.tuples(st.sampled_from(["bogus", "", "ALL"])),  # never a real suite
}
command = st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda name: _COMMANDS[name].map(lambda args: [name, *args]))
global_flags = st.lists(st.sampled_from([
    ["--format", fmt] for fmt in (*FORMATS, "xml")] + [
    ["--size-cap", cap] for cap in ("-1", "0", "60", "63", "64", "65", "4096", "x")] + [
    ["--seed", seed] for seed in ("0", "-3", "x")] + [
    ["--out", "MISSING"], ["--out", "FILE"]]), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(global_flags, command)
@example([["--out", "MISSING"]], ["table5"])
@example([], ["twirl", '["1/0"]', "2"])
def test_every_argv_exits_with_a_contract_code(flags, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MISSING": os.path.join(tmp, "missing", "out.txt"),
                 "FILE": os.path.join(tmp, "out.txt")}
        argv = [paths.get(arg, arg) for flag in flags for arg in flag] + cmd
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
