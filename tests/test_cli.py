import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import chipoly
from chipoly.algebra import Polynomial
from chipoly.bench import BenchReport, MethodTiming
from chipoly import cli
from chipoly.cli import main
from chipoly.eulerchi import ChernVector, chi_polynomial, evaluate_chi
from chipoly.oracle import Mismatch, VerifyReport
from chipoly.symmfun import power_sum_recursive

import record_cli_goldens


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stirling_triangle(capsys):
    code, out, _ = run_cli(capsys, ["stirling", "--rows", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["N\\m", "0", "1", "2", "3", "4"]
    assert lines[1].split() == ["0", "1"]
    assert lines[5].split() == ["4", "0", "6", "11", "6", "1"]


def test_stirling_signed(capsys):
    code, out, _ = run_cli(capsys, ["stirling", "--rows", "4", "--signed"])
    assert code == 0
    assert out.splitlines()[5].split() == ["4", "0", "-6", "11", "-6", "1"]


def test_powersum_text_and_methods(capsys):
    code, out, _ = run_cli(capsys, ["powersum", "--r", "3"])
    assert code == 0
    assert out.strip() == "C1^3 - 3*C1*C2 + 3*C3"
    code, out2, _ = run_cli(capsys, ["powersum", "--r", "3", "--method", "matrix"])
    assert code == 0
    assert out2 == out


def test_powersum_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["powersum", "--r", "5", "--format", "json"])
    assert code == 0
    assert Polynomial.from_json(out) == power_sum_recursive(5)


def test_powersum_latex(capsys):
    code, out, _ = run_cli(capsys, ["powersum", "--r", "2", "--format", "latex"])
    assert code == 0
    assert out.strip() == "C_{1}^{2} - 2 C_{2}"


def test_emit_chi_text(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi", "--rank", "n", "--dim", "2"])
    assert code == 0
    assert out.strip() == "1/2 * [C1^2 + 3*C1 - 2*C2] + n"


def test_emit_chi_line_bundle(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi", "--rank", "1", "--dim", "1"])
    assert code == 0
    assert out.strip() == "1/1 * [C1] + 1"


def test_emit_chi_latex(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi", "--rank", "n", "--dim", "1",
                                    "--format", "latex"])
    assert code == 0
    assert out.strip() == "\\frac{1}{1} \\left[ C_{1} \\right] + n"


@pytest.mark.parametrize("argv, expected", [
    (["emit-chi-twist", "--rank", "n", "--dim", "2", "--format", "latex"],
     "\\frac{1}{2} \\left[ n \\, T^{2} + \\left(2 C_{1} + 3 n\\right) T"
     " + \\left(C_{1}^{2} + 3 C_{1} - 2 C_{2}\\right) \\right] + n"),
    (["emit-chi-twist", "--rank", "2", "--dim", "2", "--format", "latex"],
     "\\frac{1}{2} \\left[ 2 \\, T^{2} + \\left(2 C_{1} + 6\\right) T"
     " + \\left(C_{1}^{2} + 3 C_{1} - 2 C_{2}\\right) \\right] + 2"),
    (["emit-chi-twist", "--rank", "1", "--dim", "1", "--format", "latex"],
     "\\frac{1}{1} \\left[ 1 \\, T + C_{1} \\right] + 1"),
    (["emit-chi", "--rank", "3", "--dim", "3", "--format", "latex"],
     "\\frac{1}{6} \\left[ C_{1}^{3} + 6 C_{1}^{2} - 3 C_{1} C_{2} + 11 C_{1}"
     " - 12 C_{2} + 3 C_{3} \\right] + 3"),
    (["emit-chi-twist", "--rank", "n", "--dim", "2"],
     "1/2 * [n*T^2 + (2*C1 + 3*n)*T + (C1^2 + 3*C1 - 2*C2)] + n"),
    (["emit-chi-twist", "--rank", "2", "--dim", "2"],
     "1/2 * [2*T^2 + (2*C1 + 6)*T + (C1^2 + 3*C1 - 2*C2)] + 2"),
])
def test_emit_golden(capsys, argv, expected):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == expected + "\n"


# SHA-256 of the full stdout at sizes the exact-string goldens above cannot
# pin; recorded from the Fraction-coefficient polynomial core.
@pytest.mark.parametrize("argv, digest", [
    (["emit-chi", "--rank", "n", "--dim", "16", "--format", "text"],
     "d723c0e75316d0df7df8c9fd239af8ab68e0f08b75bb6f4d4814b75b73d2dc7e"),
    (["emit-chi", "--rank", "n", "--dim", "16", "--format", "latex"],
     "b244d60a42fc029c9e95ef6d4abb1058d06cf3073f3eb91a794444aedf1237d4"),
    (["emit-chi", "--rank", "n", "--dim", "16", "--format", "json"],
     "2bf13e7d973836c5048c614b6ba674d7faede7cd7880b90a8b0cfd4a61e251c2"),
    (["emit-chi-twist", "--rank", "n", "--dim", "10", "--format", "text"],
     "9d0e814ee74d1b517f77dd16c617b6e48d62cc7497632b3e15be500ce3328fa6"),
    (["emit-chi-twist", "--rank", "n", "--dim", "10", "--format", "latex"],
     "2dbbbf61e35eebdbab504ce4da888466adca29b5ceaba6aafbc0a5211b794cfb"),
    (["powersum", "--r", "10", "--method", "recursive"],
     "503f5699a8492c70631fc16c0cb8d4ee8d6bfb6cedaa0804f3aa213529533799"),
    (["powersum", "--r", "10", "--method", "matrix"],
     "503f5699a8492c70631fc16c0cb8d4ee8d6bfb6cedaa0804f3aa213529533799"),
])
def test_emit_golden_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emit_chi_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi", "--rank", "n", "--dim", "6",
                                    "--format", "json"])
    assert code == 0
    assert Polynomial.from_json(out) == chi_polynomial(None, 6)


def test_emit_chi_twist_text(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi-twist", "--rank", "1", "--dim", "1"])
    assert code == 0
    assert out.strip() == "1/1 * [1*T + C1] + 1"


def test_emit_chi_twist_groups_by_power(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi-twist", "--rank", "2", "--dim", "2"])
    assert code == 0
    text = out.strip()
    assert text.startswith("1/2 * [")
    assert "T^2" in text and "*T + " in text
    assert text.endswith("] + 2")


def test_emit_chi_twist_json_matches_untwisted_at_zero(capsys):
    code, out, _ = run_cli(capsys, ["emit-chi-twist", "--rank", "3", "--dim", "3",
                                    "--format", "json"])
    assert code == 0
    poly = Polynomial.from_json(out)
    assert poly.substitute({"T": Polynomial.zero()}) == chi_polynomial(3, 3)


def test_eval_plane(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--rank", "2", "--dim", "2",
                                    "--chern", "3,2"])
    assert code == 0
    assert out.strip() == "9"


def test_eval_with_twist(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--rank", "1", "--dim", "2",
                                    "--chern=-3,0", "--twist", "0"])
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, ["eval", "--rank", "1", "--dim", "2",
                                    "--chern", "0,0", "--twist=-1"])
    assert code == 0
    assert out.strip() == "0"


def test_eval_prints_values_past_the_int_digit_limit(capsys):
    """A value of about 6000 digits prints exactly, and the limit comes back.

    CPython 3.11 and later limit int-to-text conversion, to 4300 digits
    by default; the test sets 4321 so that the restored value is its own.
    """
    nines = "9" * 3000
    argv = ["eval", "--rank", "2", "--dim", "2", f"--chern={nines},0"]
    if hasattr(sys, "set_int_max_str_digits"):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            code, out, _ = run_cli(capsys, argv)
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(before)
    else:
        code, out, _ = run_cli(capsys, argv)
    assert code == 0
    value = evaluate_chi(ChernVector(2, 2, (int(nines), 0)))
    text = out.strip()
    assert value.denominator == 1 and len(text) > 4300
    # Read back in chunks of 1000 digits, each under the limit.
    parsed = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        parsed = parsed * 10 ** len(chunk) + int(chunk)
    assert parsed == value


def test_eval_prints_without_the_digit_limit_hook(capsys, monkeypatch):
    """Interpreters before CPython 3.10.7 have no sys.set_int_max_str_digits;
    eval then prints the value straight away."""
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    nines = "9" * 100
    code, out, _ = run_cli(capsys, ["eval", "--rank", "2", "--dim", "2", f"--chern={nines},0",
                                    "--twist", "3"])
    assert code == 0
    assert out == f"{evaluate_chi(ChernVector(2, 2, (int(nines), 0)), 3)}\n"
    assert len(out) > 200


_PAST_LIMIT = "9" * 4301
_EVAL = ["eval", "--rank", "2", "--dim", "2"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="CPython 3.11+ limits reading ints from text")
@pytest.mark.parametrize("argv, message", [
    (_EVAL + [f"--chern={_PAST_LIMIT},0"],
     "argument --chern: the value has 4301 digits, over the interpreter's "
     "4300-digit limit for reading integers"),
    (_EVAL + ["--chern=1,2", "--twist", _PAST_LIMIT],
     "argument --twist: the value has 4301 digits, over the interpreter's "
     "4300-digit limit for reading integers"),
    (_EVAL + ["--chern=1,,2"], "argument --chern: expected comma-separated integers, got '1,,2'"),
    (_EVAL + ["--chern=1,2", "--twist", "abc"], "argument --twist: invalid int value: 'abc'"),
], ids=["chern-past-limit", "twist-past-limit", "chern-not-integer", "twist-not-integer"])
def test_integer_flags_name_the_digit_limit(capsys, argv, message):
    """A value of more than 4300 digits exits 2 with a message that names
    the limit and does not echo the value; text that is no integer keeps
    its own message."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv)
    finally:
        sys.set_int_max_str_digits(before)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"chipoly eval: error: {message}"
    assert "9" * 100 not in err


def test_eval_rejects_symbolic_rank(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--rank", "n", "--dim", "2", "--chern", "1,2"])
    assert exc.value.code == 2
    assert "--rank" in capsys.readouterr().err


def test_eval_rejects_wrong_chern_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--rank", "2", "--dim", "3", "--chern", "1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--chern" in err and "expected 3" in err


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["powersum", "--r", "0"],
        ["powersum", "--r", "2", "--format", "pdf"],
        ["emit-chi", "--rank", "x", "--dim", "3"],
        ["emit-chi", "--rank", "2"],
        ["stirling", "--rows", "-1"],
        ["eval", "--rank", "2", "--dim", "2", "--chern", "1,a"],
        ["bench", "--dim", "3", "--methods", "matrix,bogus"],
        ["verify", "--dim", "2", "--rank", "2", "--max-a", "70000"],
        ["bench", "--dim", "3", "--timeout", "0"],
        ["bench", "--dim", "3", "--timeout", "-1"],
        ["bench", "--dim", "3", "--timeout", "nan"],
        ["bench", "--dim", "3", "--timeout", "inf"],
        ["bench", "--dim", "3", "--timeout", "1000001"],
        ["bench", "--dim", "3", "--timeout", "2147484"],
        ["bench", "--dim", "3", "--timeout", "1e10"],
        ["bench", "--dim", "3", "--timeout", "9223372036"],
        # Bounds that the library states and argparse only parses.
        ["emit-chi", "--rank", "2", "--dim", "0"],
        ["emit-chi-twist", "--rank", "2", "--dim", "0"],
        ["verify", "--dim", "0", "--rank", "2"],
        ["bench", "--dim", "0"],
        ["emit-chi", "--rank", "0", "--dim", "2"],
        ["emit-chi-twist", "--rank", "0", "--dim", "2"],
        ["eval", "--rank", "0", "--dim", "2", "--chern", "1,2"],
        ["verify", "--dim", "2", "--rank", "0"],
        ["verify", "--dim", "2", "--rank", "2", "--trials", "0"],
        ["verify", "--dim", "2", "--rank", "2", "--twist-range", "-1"],
        ["verify", "--dim", "2", "--rank", "2", "--max-a", "-1"],
        ["bench", "--dim", "3", "--repetitions", "0"],
        ["bench", "--dim", "3", "--matrix-cutoff", "0"],
        ["bench", "--dim", "3", "--methods", "bogus"],
        ["powersum", "--r", "0", "--method", "matrix"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, (argv, err)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "emit-chi-twist" in capsys.readouterr().out


def test_verify_success(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--dim", "2", "--rank", "2",
                                    "--trials", "5"])
    assert code == 0
    assert "all comparisons agree" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--dim", "3", "--rank", "2",
                                    "--trials", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["dim"] == 3
    assert data["checks"] == 4 * (1 + 9)


def test_verify_failure_exit_code(capsys, monkeypatch):
    report = VerifyReport(dim=2, rank=2, trials=1, max_a=4, seed=7, twist_range=0)
    report.checks = 1
    report.mismatches.append(Mismatch(0, (1, 2), None, 5, 6))
    monkeypatch.setattr("chipoly.cli.verify", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, ["verify", "--dim", "2", "--rank", "2"])
    assert code == 1
    assert "MISMATCH" in out


def test_bench_text(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--dim", "3", "--repetitions", "1"])
    assert code == 0
    assert "dim=3" in out
    assert "identical polynomials" in out


def test_bench_json(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--dim", "2", "--repetitions", "1",
                                    "--methods", "recursive", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["agreement"] is None
    assert [m["method"] for m in data["methods"]] == ["recursive"]


def test_bench_disagreement_exit_code(capsys, monkeypatch):
    report = BenchReport(dim=3, repetitions=1, timeout=None, machine="test",
                         timings=[MethodTiming("matrix", [0.1], 4)],
                         agreement=False)
    monkeypatch.setattr("chipoly.cli.run_bench", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, ["bench", "--dim", "3"])
    assert code == 1
    assert "RESULTS DIFFER" in out


def test_cli_import_skips_bench_only_modules():
    # Only the bench subcommand needs these; they load when it runs.
    code = ("import sys, chipoly.cli; "
            "print(sorted({'multiprocessing', 'platform', 'statistics'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
slow = {"dataclasses", "inspect", "json", "chipoly.bench"}
before = set(sys.modules)
import chipoly.cli
after_cli = set(sys.modules)
import chipoly
added = (after_cli - before, set(sys.modules) - after_cli)
print([sorted(slow & new) for new in added])
names = {}
exec("from chipoly import *", names)
lazy = [chipoly.BenchReport, chipoly.MethodTiming, chipoly.run_bench]
assert [f.__module__ for f in lazy] == ["chipoly.bench"] * 3, lazy
print(sorted(set(chipoly.__all__) - set(names)))
"""


def test_import_leaves_out_dataclasses_inspect_and_bench():
    """Importing chipoly.cli, then chipoly, in a fresh interpreter loads none
    of dataclasses, inspect, json and chipoly.bench; the bench names still
    resolve from the package, on first use.  Modules loaded before the import
    (say by a .pth file) do not count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chipoly.__file__)))
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[[], []]", "[]"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chipoly", "eval", "--rank", "1", "--dim", "3",
         "--chern", "2,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"


# Strings that no numeric or list flag accepts, or accepts only by accident.
# No huge numbers: --rows, --r, --dim and the like have no upper limit, so
# a huge accepted value would run for hours; each draw keeps runs small.
_JUNK = ["", "x", "n", "1.5", "nan", "inf", "-inf", "1e10", "0x10", " 3", "3,", ",",
         "1,,2", "--", "\u00e9"]
_HUGE = "9" * 40


def _flag(valid, past=()):
    """(accepted values, values past the flag's limits or junk) for one flag."""
    return valid, st.sampled_from([str(v) for v in past] + _JUNK)


def _number(lo, hi, past=()):
    return _flag(st.integers(lo, hi).map(str), past)


def _choice(valid, bad=()):
    return _flag(st.sampled_from(valid), bad)


_RANK = _flag(st.one_of(st.just("n"), st.integers(1, 5).map(str)), (0, -1))
_DIM = _number(1, 5, (0, -1))
_METHOD = _choice(["matrix", "recursive"], ["bogus"])
_FORMAT = _choice(["text", "latex", "json"], ["pdf"])
_BIG = _flag(st.integers(-10**30, 10**30).map(str))
# Every subcommand's flags; None marks a switch, and the flags in _REQUIRED
# are required wherever they appear.  Accepted values keep each run small:
# dim, rank <= 5, trials <= 3, twist-range <= 3, rows <= 12, r <= 6.
_FLAGS = {
    "stirling": {"--rows": _number(0, 12, (-1,)), "--signed": None},
    "powersum": {"--r": _number(1, 6, (0, -1)), "--method": _METHOD, "--format": _FORMAT},
    "emit-chi": {"--rank": _RANK, "--dim": _DIM, "--method": _METHOD, "--format": _FORMAT},
    "emit-chi-twist": {"--rank": _RANK, "--dim": _DIM, "--format": _FORMAT},
    "eval": {"--rank": _RANK, "--dim": _DIM, "--chern": None, "--twist": _BIG},
    "verify": {"--dim": _DIM, "--rank": _number(1, 5, (0, -1)),
               "--trials": _number(1, 3, (0, -1)),
               "--max-a": _flag(st.sampled_from(["0", "1", "4", "65535"]),
                                (65536, 70000, _HUGE, -1)),
               "--seed": _BIG, "--twist-range": _number(0, 3, (-1,)),
               "--format": _choice(["text", "json"], ["latex"])},
    "bench": {"--dim": _DIM,
              "--methods": _choice(["matrix", "recursive", "matrix,recursive",
                                    "recursive, matrix"], ["matrix,bogus"]),
              "--repetitions": _number(1, 2, (0, -1)),
              # 10**6 s is the maximum; from 2147484 s on, Connection.poll overflowed.
              "--timeout": _choice(["1e-9", "0.5", "60", "1000000"],
                                   [0, -1, 1000001, 2147484, 9223372036, _HUGE]),
              "--matrix-cutoff": _flag(st.sampled_from(["1", "3", "20", _HUGE]), (0, -1)),
              "--format": _choice(["text", "json"], ["latex"])},
}
_REQUIRED = {"--rows", "--r", "--rank", "--dim", "--chern"}


@st.composite
def _argv(draw):
    """One command line: valid throughout half the time, else with flags
    dropped, values past their limits or junk, and maybe a stray token."""
    command = draw(st.sampled_from(sorted(_FLAGS) + ["no-such-command", ""]))
    clean = draw(st.booleans())
    argv = [command]
    for flag, values in _FLAGS.get(command, {}).items():
        if not (clean and flag in _REQUIRED) and not draw(st.booleans()):
            continue
        if flag == "--chern":  # one class per dimension, unless not clean
            dim = argv[-1].partition("=")[2] if argv[-1].startswith("--dim=") else ""
            count = int(dim) if dim in ("1", "2", "3", "4", "5") else 2
            count += 0 if clean else draw(st.integers(-1, 1))
            classes = draw(st.lists(st.integers(-10**6, 10**6), min_size=count, max_size=count))
            argv.append("--chern=" + ",".join(map(str, classes)))
        elif values is None:
            argv.append(flag)
        else:
            valid, bad = values
            argv.append(f"{flag}={draw(valid if clean or draw(st.booleans()) else bad)}")
    if not clean:
        argv += draw(st.lists(st.sampled_from(["--help", "--bogus", "extra"]), max_size=1))
    return argv


@settings(deadline=None, max_examples=200)
@given(_argv())
@example(["bench", "--dim=2", "--timeout=2147484"])
@example(["bench", "--dim=2", "--timeout=1e10"])
@example(["bench", "--dim=2", "--timeout=9223372036"])
@example(["emit-chi", "--rank=n", "--dim=--"])
def test_cli_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())


_GOLDENS = json.loads(record_cli_goldens.GOLDENS.read_text())


@pytest.mark.parametrize("index", range(len(_GOLDENS["argvs"])),
                         ids=[" ".join(argv) or "(no argv)" for argv in _GOLDENS["argvs"]])
def test_cli_output_matches_goldens(index, monkeypatch):
    # Help, usage and error text as this CPython's argparse wrote it when
    # every subcommand's flags were registered up front.
    record = record_cli_goldens.record_for(_GOLDENS)
    if record is None:
        pytest.fail(f"cli_goldens.json has no record for CPython {record_cli_goldens.RELEASE}; "
                    "capture one at a commit whose CLI text is known to be right with "
                    "PYTHONPATH=src COLUMNS=80 python tests/record_cli_goldens.py")
    monkeypatch.setenv("COLUMNS", "80")
    assert record_cli_goldens.run(_GOLDENS["argvs"][index]) == record["cases"][index]


def test_parsing_registers_only_the_chosen_subcommands_flags(monkeypatch):
    """build_parser initialises the top-level parser alone; a parse then
    initialises the chosen subcommand's parser, once, with its flags, and
    none of the other six."""
    initialised = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        initialised.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == [name for name, *_ in cli._SUBCOMMANDS]
    assert initialised == ["chipoly"]
    verify_flags = ["help", "dim", "rank", "trials", "max_a", "seed", "twist_range", "format"]
    for argv in (["verify", "--dim", "2", "--rank", "3"], ["verify", "--dim", "3", "--rank", "1"]):
        args = parser.parse_args(argv)
        assert (args.dim, args.rank, args.trials) == (int(argv[2]), int(argv[4]), 50)
        assert args.parser is subparsers["verify"] and args.handler is cli._cmd_verify
        assert [a.dest for a in args.parser._actions] == verify_flags
        assert initialised == ["chipoly", "chipoly verify"]
