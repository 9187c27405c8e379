import json
import subprocess
import sys

import pytest

from chipoly.algebra import Polynomial
from chipoly.bench import BenchReport, MethodTiming
from chipoly.cli import main
from chipoly.eulerchi import chi_polynomial
from chipoly.oracle import Mismatch, VerifyReport
from chipoly.symmfun import power_sum_recursive


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
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chipoly", "eval", "--rank", "1", "--dim", "3",
         "--chern", "2,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"
