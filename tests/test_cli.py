import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import chipoly
from chipoly.algebra import Polynomial
from chipoly.bench import BenchReport, MethodTiming
from chipoly import cli
from chipoly.cli import main
from chipoly.eulerchi import ChernVector, chi_polynomial, chi_twist_polynomial, evaluate_chi
from chipoly.oracle import Mismatch, VerifyReport
from chipoly.stirling import StirlingTable
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


def _two_pass_stirling_rows(rows):
    # The printer as it was before each entry was written once: every
    # entry goes to text once for the widths and again for its cell.
    count = len(rows)
    label = "N\\m"
    col_w = []
    for m in range(count):
        w = len(str(m))
        for n in range(m, count):
            w = max(w, len(str(rows[n][m])))
        col_w.append(w)
    left_w = max(len(label), len(str(count - 1)))
    lines = [label.rjust(left_w) + "  " + "  ".join(str(m).rjust(col_w[m]) for m in range(count))]
    for n, row in enumerate(rows):
        cells = [str(row[m]).rjust(col_w[m]) for m in range(n + 1)]
        lines.append(str(n).rjust(left_w) + "  " + "  ".join(cells))
    return "\n".join(lines)


@pytest.mark.parametrize("signed", [False, True])
def test_stirling_rows_match_the_two_pass_printer(signed):
    table = StirlingTable()
    for last in range(81):
        rows = [table.row(n, signed=signed) for n in range(last + 1)]
        got = "\n".join(cli.format_stirling_rows(rows.__getitem__, last))
        assert got == _two_pass_stirling_rows(rows), last


class _CountingSink:
    """A stdout that counts the characters written and keeps none of them."""

    chars = 0
    longest = 0  # the most characters in one write

    def write(self, text):
        self.chars += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("signed", [False, True])
def test_stirling_memory_stays_near_the_output(signed):
    """stirling writes each line as it is made: the traced peak, the table
    included, stays within 1.5 times the characters written.  A printer that
    holds every line, or the joined text, peaks at over twice the output."""
    # A first call pays the one-time imports and caches of parsing, which
    # are not the printer's memory.
    with contextlib.redirect_stdout(_CountingSink()):
        main(["stirling", "--rows", "1"])
    argv = ["stirling", "--rows", "150"] + ["--signed"] * signed
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 2_000_000
    assert peak <= 1.5 * sink.chars, (peak, sink.chars)


@pytest.mark.parametrize("signed", [False, True])
def test_stirling_memory_is_the_table_and_about_one_line(signed):
    """Past the Stirling table itself, stirling holds about one line: the
    traced peak exceeds the table's own memory by at most 12 times the
    longest line (7.4 measured at 150 rows).  A printer that holds every
    entry's text until its first line exceeds it by about 78 times."""
    with contextlib.redirect_stdout(_CountingSink()):
        main(["stirling", "--rows", "1"])
    tracemalloc.start()
    try:
        filled = StirlingTable()
        filled.row(150)
        table = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del filled
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["stirling", "--rows", "150"] + ["--signed"] * signed) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.longest > 20_000
    assert peak - table <= 12 * sink.longest, (peak, table, sink.longest)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="CPython 3.11+ limits writing ints as text")
def test_stirling_refused_entry_writes_nothing(capsys):
    """The last two rows, which hold every column's largest entry, are
    converted before the first line is written, so an entry over the digit
    limit exits 2 with nothing on stdout.  [312, 1] = 311! has 642 digits,
    over the lowest limit CPython allows, 640."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SystemExit) as exc:
            main(["stirling", "--rows", "312"])
    finally:
        sys.set_int_max_str_digits(before)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "640" in captured.err.splitlines()[-1]


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
    # stirling's own write path, trailing newline included: recorded when
    # the command printed its triangle as one string.
    (["stirling", "--rows", "200"],
     "70f3bb3a5a03986294b9d4697a63f972b26b18bc071ac3093477faf862bd89c1"),
    (["stirling", "--rows", "200", "--signed"],
     "f83f8943dbb74006c1b3551c8b68c9472635369427f349b27fee9e40ff3234b7"),
    # Renderer paths none of the cases above reaches: a numeric rank in
    # LaTeX, the T-grouped frame at a numeric rank, and power sums in LaTeX
    # and JSON.
    (["emit-chi", "--rank", "3", "--dim", "20", "--format", "latex"],
     "83e102fb417411a4af59983574952a077709e5587853efaa3bc8d6fa26e3c291"),
    (["emit-chi-twist", "--rank", "3", "--dim", "12", "--format", "text"],
     "1112c5f1ce618d7e8e8d96659eea6b6e777e189962861aba7225b1d165576a9e"),
    (["emit-chi-twist", "--rank", "3", "--dim", "12", "--format", "latex"],
     "a66caf820408d9f70d0e075894c63708c93c270315356ce9be15dbe643683e09"),
    (["powersum", "--r", "12", "--format", "latex"],
     "a1511edce584cc55aab248de29a1a03825038d694e76488a9dfdd7771cd53591"),
    (["powersum", "--r", "12", "--format", "json"],
     "07628a4d5d0bd1dee59761f35810b0ba8e03f5b45218e5706075738fe19c0153"),
])
def test_emit_golden_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 over the stdout of every dim of one (subcommand, rank, format):
# emit-chi at dims 1-24 and emit-chi-twist at dims 1-16, each output in
# dim order.  The output holds no argparse text, so one record serves
# every CPython.
_SWEEP_DIMS = {"emit-chi": range(1, 25), "emit-chi-twist": range(1, 17)}
_SWEEP_DIGESTS = {
    ("emit-chi", "n", "text"):
        "12f400c50240324a5e86ec0a14ecf917f09195b84e6a5107106f43eef950e255",
    ("emit-chi", "n", "latex"):
        "e839e056575aef0d62cf4a0973f2e52e7598068ceafb89721ae6b1f28ea0e55d",
    ("emit-chi", "n", "json"):
        "a0acf578fa4106d51ba9cb93050b13ffef661577d4ba558f5a5ca4e73bc6dc57",
    ("emit-chi", "1", "text"):
        "a925cdc795614b751557424f15e7bd5fda3647026bcc8ac09767802a21e629c8",
    ("emit-chi", "1", "latex"):
        "53181aa67eaf9349a655ba910bbe645221410e5e1bf9bf091ea42ffa48b37fe9",
    ("emit-chi", "1", "json"):
        "45fc367503b3d2d7b51d59d8b84c4a521a8404425480f5f38f260545a2de64dc",
    ("emit-chi", "3", "text"):
        "58f1be8998f817042eafc04d3f361fdb5071cf8273eae3177d8638c78fc5281c",
    ("emit-chi", "3", "latex"):
        "320c6baf1ff2a9429829c448f6defc40052f372bfd7b90bc1ce76bb35b47828b",
    ("emit-chi", "3", "json"):
        "8710aef4077ec86ee3c26ba2775a7e0bef2ddda540046a47c7b02d278f0b98dc",
    ("emit-chi-twist", "n", "text"):
        "81a965463fdef239e621db209b63a879860b5f6de387db336c3a45ba3220e27e",
    ("emit-chi-twist", "n", "latex"):
        "2daa2848199fb74f08852d5a25ed3c4a7a9626644f2dd33af9a0f06cfbaeb7ae",
    ("emit-chi-twist", "n", "json"):
        "0b02ac9fb28f58a03610b265dbd0c2f6db9d91bbb4e06e197bb4b0a475c8593a",
    ("emit-chi-twist", "1", "text"):
        "961a9d475f2945a0148d7ca1f513b14d6cb44c7936069263fd4bfddb4fe7493b",
    ("emit-chi-twist", "1", "latex"):
        "c7a59a14e3ba10520a3f1e57719a0d8ea24b23e743b150d250a2b073720cf7cc",
    ("emit-chi-twist", "1", "json"):
        "8817f1f1c51e3195eff22dda617103e190e2e0a515e9c94adcd181b5cc416589",
    ("emit-chi-twist", "3", "text"):
        "c9235af7d60975cc22b42226f7ea7a85edc350bd8c6661d178d5dcf905b59e92",
    ("emit-chi-twist", "3", "latex"):
        "b3a03366c98dbc245c34aa5765ad86e3f706d2d613ec735c87362ef4ad6708c9",
    ("emit-chi-twist", "3", "json"):
        "75eba7486eadcab49a7a4146d180b0f76ea20136e49a8c6462a9aa0cbcdbd31e",
}


@pytest.mark.parametrize("case", list(_SWEEP_DIGESTS), ids="-".join)
def test_emit_sweep_digest(capsys, case):
    """Every emit output across the dims, in every rank and format, hashes as
    recorded: the renderers write the same bytes at each size."""
    command, rank, fmt = case
    digest = hashlib.sha256()
    for dim in _SWEEP_DIMS[command]:
        code, out, _ = run_cli(capsys, [command, "--rank", rank, "--dim", str(dim),
                                        "--format", fmt])
        assert code == 0, (command, rank, dim, fmt)
        digest.update(out.encode())
    assert digest.hexdigest() == _SWEEP_DIGESTS[case]


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


def test_twisted_frame_writes_powers_of_t_without_pow(monkeypatch):
    # Each group's T^k is written from its monomial, not built by multiplying.
    polys = [chi_twist_polynomial(None, dim) for dim in range(1, 9)]
    expected = [(cli.format_chi_text(g, dim, True), cli.format_chi_latex(g, dim, True))
                for dim, g in enumerate(polys, 1)]

    def refuse(self, exponent):
        raise AssertionError("Polynomial.__pow__ called")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    for dim, (g, want) in enumerate(zip(polys, expected), 1):
        got = (cli.format_chi_text(g, dim, True), cli.format_chi_latex(g, dim, True))
        assert got == want, dim


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


def test_eval_refuses_a_bad_dim_before_the_chern_arity(capsys):
    for dim in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--rank", "1", "--dim", dim, "--chern", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: dimension: expected an integer, at least 1, got {dim}" in err, err


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
        ["bench", "--dim", "3", "--methods", "recursive,recursive"],
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
