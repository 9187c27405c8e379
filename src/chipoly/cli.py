"""Command-line interface.

Subcommands: stirling, powersum, emit-chi, emit-chi-twist, eval, verify,
bench.  Exit codes: 0 on success, 1 when a verification or agreement
check fails, 2 for usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import math
import sys

from .algebra import TWIST, Polynomial
from .bench import DEFAULT_MATRIX_CUTOFF, run_bench
from .eulerchi import (
    METHODS,
    ChernVector,
    chi_polynomial,
    chi_twist_polynomial,
    evaluate_chi,
    prefactor_parts,
)
from .oracle import MAX_A, verify
from .stirling import StirlingTable
from .symmfun import power_sum_matrix, power_sum_recursive


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _rank_arg(text: str):
    """Rank flag value: a positive integer, or the literal 'n' for symbolic."""
    if text == "n":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'n', got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'n', got {text!r}"
        )
    return value


def _chern_arg(text: str) -> tuple:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def format_stirling_rows(rows) -> str:
    """Fixed-width lower-triangular layout with row and column labels."""
    count = len(rows)
    label = "N\\m"
    col_w = []
    for m in range(count):
        w = len(str(m))
        for n in range(m, count):
            w = max(w, len(str(rows[n][m])))
        col_w.append(w)
    left_w = max(len(label), len(str(count - 1)))
    lines = [
        label.rjust(left_w)
        + "  "
        + "  ".join(str(m).rjust(col_w[m]) for m in range(count))
    ]
    for n, row in enumerate(rows):
        cells = [str(row[m]).rjust(col_w[m]) for m in range(n + 1)]
        lines.append(str(n).rjust(left_w) + "  " + "  ".join(cells))
    return "\n".join(lines)


def _twist_grouped_text(bracket: Polynomial) -> str:
    groups = bracket.collect(TWIST)
    parts = []
    for k in sorted(groups, reverse=True):
        g = groups[k]
        body = g.to_text()
        if k == 0:
            parts.append(f"({body})" if len(g) > 1 else body)
            continue
        tpow = "T" if k == 1 else f"T^{k}"
        if len(g) > 1:
            parts.append(f"({body})*{tpow}")
        else:
            parts.append(f"{body}*{tpow}")
    return " + ".join(parts)


def _twist_grouped_latex(bracket: Polynomial) -> str:
    groups = bracket.collect(TWIST)
    parts = []
    for k in sorted(groups, reverse=True):
        g = groups[k]
        body = g.to_latex()
        if k == 0:
            parts.append(f"\\left({body}\\right)" if len(g) > 1 else body)
            continue
        tpow = "T" if k == 1 else f"T^{{{k}}}"
        if len(g) > 1:
            parts.append(f"\\left({body}\\right) {tpow}")
        else:
            parts.append(f"{body} \\, {tpow}")
    return " + ".join(parts)


def format_chi_text(poly: Polynomial, dim: int, twisted: bool = False) -> str:
    bracket, tail = prefactor_parts(poly, dim)
    inner = _twist_grouped_text(bracket) if twisted else bracket.to_text()
    out = f"1/{math.factorial(dim)} * [{inner}]"
    tail_text = tail.to_text()
    if tail_text != "0":
        out += f" + {tail_text}"
    return out


def format_chi_latex(poly: Polynomial, dim: int, twisted: bool = False) -> str:
    bracket, tail = prefactor_parts(poly, dim)
    inner = _twist_grouped_latex(bracket) if twisted else bracket.to_latex()
    out = f"\\frac{{1}}{{{math.factorial(dim)}}} \\left[ {inner} \\right]"
    tail_text = tail.to_latex()
    if tail_text != "0":
        out += f" + {tail_text}"
    return out


def _emit_poly(poly: Polynomial, fmt: str) -> str:
    if fmt == "latex":
        return poly.to_latex()
    if fmt == "json":
        return poly.to_json()
    return poly.to_text()


def _emit_chi(poly: Polynomial, dim: int, fmt: str, twisted: bool) -> str:
    if fmt == "json":
        return poly.to_json()
    if fmt == "latex":
        return format_chi_latex(poly, dim, twisted)
    return format_chi_text(poly, dim, twisted)


def _cmd_stirling(args) -> int:
    table = StirlingTable()
    rows = [table.row(n, signed=args.signed) for n in range(args.rows + 1)]
    print(format_stirling_rows(rows))
    return 0


def _cmd_powersum(args) -> int:
    if args.method == "matrix":
        poly = power_sum_matrix(args.r)
    else:
        poly = power_sum_recursive(args.r)
    print(_emit_poly(poly, args.format))
    return 0


def _cmd_emit_chi(args) -> int:
    poly = chi_polynomial(args.rank, args.dim, args.method)
    print(_emit_chi(poly, args.dim, args.format, twisted=False))
    return 0


def _cmd_emit_chi_twist(args) -> int:
    poly = chi_twist_polynomial(args.rank, args.dim)
    print(_emit_chi(poly, args.dim, args.format, twisted=True))
    return 0


def _cmd_eval(args) -> int:
    if args.rank is None:
        args.parser.error("argument --rank: eval needs a numeric rank, not 'n'")
    if len(args.chern) != args.dim:
        args.parser.error(
            f"argument --chern: expected {args.dim} comma-separated values "
            f"for --dim {args.dim}, got {len(args.chern)}"
        )
    cv = ChernVector(args.dim, args.rank, args.chern)
    print(evaluate_chi(cv, args.twist))
    return 0


def _cmd_verify(args) -> int:
    if args.max_a > MAX_A:
        args.parser.error(f"argument --max-a: expected at most {MAX_A}, got {args.max_a}")
    report = verify(
        args.dim, args.rank, args.trials, args.max_a, args.seed, args.twist_range
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(","))
    for m in methods:
        if m not in METHODS:
            args.parser.error(
                f"argument --methods: unknown method {m!r}, expected "
                f"{', '.join(METHODS)}"
            )
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        args.parser.error(f"argument --timeout: expected a positive number, got {args.timeout}")
    report = run_bench(
        args.dim,
        methods=methods,
        repetitions=args.repetitions,
        timeout=args.timeout,
        matrix_cutoff=args.matrix_cutoff,
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    return 1 if report.agreement is False else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipoly",
        description="Exact Euler-characteristic polynomials on projective space.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stirling", help="print the unsigned (or signed) Stirling triangle")
    p.add_argument("--rows", type=_nonneg_int, required=True, help="last row N to print")
    p.add_argument("--signed", action="store_true", help="signed numbers s(N, m)")
    p.set_defaults(handler=_cmd_stirling, parser=p)

    p = subs.add_parser("powersum", help="print the power sum B_r in the C variables")
    p.add_argument("--r", type=_positive_int, required=True, help="power-sum index")
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_powersum, parser=p)

    p = subs.add_parser("emit-chi", help="print the chi polynomial for rank/dim")
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_emit_chi, parser=p)

    p = subs.add_parser("emit-chi-twist", help="print the twisted chi polynomial")
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_emit_chi_twist, parser=p)

    p = subs.add_parser("eval", help="evaluate chi at a concrete Chern vector")
    p.add_argument("--rank", type=_rank_arg, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--chern", type=_chern_arg, required=True,
                   help="comma-separated integers c1,...,cN")
    p.add_argument("--twist", type=int, default=None,
                   help="also twist by O(t) before evaluating")
    p.set_defaults(handler=_cmd_eval, parser=p)

    p = subs.add_parser("verify", help="cross-check against split-bundle counts")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--max-a", type=_nonneg_int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--twist-range", type=_nonneg_int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify, parser=p)

    p = subs.add_parser("bench", help="time the two power-sum routes")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated subset of matrix,recursive")
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock limit in seconds")
    p.add_argument("--matrix-cutoff", type=_positive_int, default=DEFAULT_MATRIX_CUTOFF)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_bench, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
