"""Command-line interface.

Subcommands: stirling, powersum, emit-chi, emit-chi-twist, eval, verify,
bench.  Exit codes: 0 on success, 1 when a verification or agreement
check fails, 2 for usage errors (argparse's convention).  Flags are
parsed here but bounded in the library: a value it refuses exits 2 with
the library's message, such as "max-a: expected an integer, at least 0,
at most 65535, got 70000".
"""

from __future__ import annotations

import argparse
import math
import sys
from operator import methodcaller
from typing import NamedTuple

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
from .oracle import verify
from .stirling import StirlingTable
from .symmfun import power_sum_matrix, power_sum_recursive


def _rank_arg(text: str):
    """argparse type: 'n' (None, the symbolic rank) or an integer."""
    if text == "n":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'n', got {text!r}") from None


def _methods_arg(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(","))


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


class _ChiStyle(NamedTuple):
    """The tokens one output format writes a chi polynomial with."""

    render: methodcaller  # writes a Polynomial: calls its to_text or to_latex
    open: str  # parentheses around a group of several terms
    close: str
    group_t: str  # between a parenthesised group and its T power
    term_t: str  # between a single-term group and its T power
    frame: str  # the 1/N! frame, formatted with N! and the bracket


_TEXT = _ChiStyle(methodcaller("to_text"), "(", ")", "*", "*", "1/{} * [{}]")
_LATEX = _ChiStyle(
    methodcaller("to_latex"), "\\left(", "\\right)", " ", " \\, ",
    "\\frac{{1}}{{{}}} \\left[ {} \\right]",
)


def _twist_grouped(bracket: Polynomial, style: _ChiStyle) -> str:
    """The bracket as a sum over powers of T, highest first."""
    groups = bracket.collect(TWIST)
    parts = []
    for k in sorted(groups, reverse=True):
        g = groups[k]
        body = style.render(g)
        if len(g) > 1:
            body = style.open + body + style.close
        if k:
            tpow = style.render(Polynomial.variable(TWIST) ** k)
            body += (style.group_t if len(g) > 1 else style.term_t) + tpow
        parts.append(body)
    return " + ".join(parts)


def _format_chi(poly: Polynomial, dim: int, twisted: bool, style: _ChiStyle) -> str:
    bracket, tail = prefactor_parts(poly, dim)
    inner = _twist_grouped(bracket, style) if twisted else style.render(bracket)
    out = style.frame.format(math.factorial(dim), inner)
    tail_text = style.render(tail)
    if tail_text != "0":
        out += f" + {tail_text}"
    return out


def format_chi_text(poly: Polynomial, dim: int, twisted: bool = False) -> str:
    return _format_chi(poly, dim, twisted, _TEXT)


def format_chi_latex(poly: Polynomial, dim: int, twisted: bool = False) -> str:
    return _format_chi(poly, dim, twisted, _LATEX)


def _emit_chi(poly: Polynomial, dim: int, fmt: str, twisted: bool) -> str:
    if fmt == "json":
        return poly.to_json()
    # Looked up at call time, so a wrapped formatter is the one called.
    formatter = format_chi_latex if fmt == "latex" else format_chi_text
    return formatter(poly, dim, twisted)


def _cmd_stirling(args) -> int:
    table = StirlingTable()
    table.row(args.rows)  # checks --rows, which the loop below would skip if negative
    rows = [table.row(n, signed=args.signed) for n in range(args.rows + 1)]
    print(format_stirling_rows(rows))
    return 0


def _cmd_powersum(args) -> int:
    if args.method == "matrix":
        poly = power_sum_matrix(args.r)
    else:
        poly = power_sum_recursive(args.r)
    print(getattr(poly, f"to_{args.format}")())
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
    report = verify(
        args.dim, args.rank, args.trials, args.max_a, args.seed, args.twist_range
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    report = run_bench(
        args.dim,
        methods=args.methods,
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
    p.add_argument("--rows", type=int, required=True, help="last row N to print")
    p.add_argument("--signed", action="store_true", help="signed numbers s(N, m)")
    p.set_defaults(handler=_cmd_stirling, parser=p)

    p = subs.add_parser("powersum", help="print the power sum B_r in the C variables")
    p.add_argument("--r", type=int, required=True, help="power-sum index")
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_powersum, parser=p)

    p = subs.add_parser("emit-chi", help="print the chi polynomial for rank/dim")
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_emit_chi, parser=p)

    p = subs.add_parser("emit-chi-twist", help="print the twisted chi polynomial")
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=_cmd_emit_chi_twist, parser=p)

    p = subs.add_parser("eval", help="evaluate chi at a concrete Chern vector")
    p.add_argument("--rank", type=_rank_arg, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--chern", type=_chern_arg, required=True,
                   help="comma-separated integers c1,...,cN")
    p.add_argument("--twist", type=int, default=None,
                   help="also twist by O(t) before evaluating")
    p.set_defaults(handler=_cmd_eval, parser=p)

    p = subs.add_parser("verify", help="cross-check against split-bundle counts")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-a", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--twist-range", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify, parser=p)

    p = subs.add_parser("bench", help="time the two power-sum routes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--methods", type=_methods_arg, default=METHODS,
                   help="comma-separated subset of matrix,recursive")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock limit in seconds")
    p.add_argument("--matrix-cutoff", type=int, default=DEFAULT_MATRIX_CUTOFF)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_bench, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    # argparse drops a "--" value, as in --dim=--, and stores [] without
    # calling the flag's type; no flag here takes a list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            args.parser.error(f"argument --{name.replace('_', '-')}: expected one value")
    # Every bound lives in the library, whose argument checks raise
    # ValueError before any work starts: a refused value is a usage error.
    try:
        return args.handler(args)
    except ValueError as err:
        args.parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
