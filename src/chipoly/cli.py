"""Command-line interface.

Subcommands: stirling, powersum, emit-chi, emit-chi-twist, eval, verify,
bench.  Exit codes: 0 on success; 1 when a check failed (verify found a
mismatch, or bench's methods disagree); 2 when a value was refused before
any work (argparse's usage error).  Flags are parsed here but bounded in
the library: a value it refuses exits 2 with the library's message, such
as "max-a: expected an integer, at least 0, at most 65535, got 70000".
Flags are read under CPython's int-to-text digit limit; results are
written without it, however many digits they have.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from itertools import zip_longest
from operator import methodcaller
from typing import NamedTuple

from .algebra import TWIST, Polynomial, _LatexPowers, _TextPowers, _slot
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


# Text int() reads, whitespace, sign and underscores included.  CPython
# 3.11+ refuses such text of more than sys.get_int_max_str_digits() digits,
# which guards input from outside; the refusal then gives the digit count
# and the limit, not the value.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _parse_int(text: str, refusal: str) -> int:
    """int(text), else an argparse error: refusal, or the digit limit."""
    try:
        return int(text)
    except ValueError:
        if not _INT_TEXT.fullmatch(text):
            raise argparse.ArgumentTypeError(refusal) from None
    digits = sum(map(str.isdecimal, text))
    raise argparse.ArgumentTypeError(
        f"the value has {digits} digits, over the interpreter's "
        f"{sys.get_int_max_str_digits()}-digit limit for reading integers"
    )


def _int_arg(text: str) -> int:
    """argparse type for an integer flag, with argparse's own refusal."""
    return _parse_int(text, f"invalid int value: {text!r}")


def _rank_arg(text: str):
    """argparse type: 'n' (None, the symbolic rank) or an integer."""
    if text == "n":
        return None
    return _parse_int(text, f"expected an integer or 'n', got {text!r}")


def _methods_arg(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(","))


def _chern_arg(text: str) -> tuple:
    refusal = f"expected comma-separated integers, got {text!r}"
    return tuple(_parse_int(p, refusal) for p in text.split(","))


def format_stirling_rows(row, last):
    """Yield the lines of a fixed-width lower-triangular layout of rows
    0..last, with row and column labels; row(n) gives row n.

    Each column's width is read from the header and the last two rows.
    Below the header an unsigned column's entries never shrink, and a
    signed column has its minus sign in one of those two rows if in any.
    Those rows become text first, for the widths; every other line is
    then converted and written alone.
    """
    header = ["N\\m", *map(str, range(last + 1))]
    tail = [[str(n), *map(str, row(n))] for n in range(max(last - 1, 0), last + 1)]
    widths = [max(map(len, column)) for column in zip_longest(header, *tail, fillvalue="")]
    yield "  ".join(map(str.rjust, header, widths))
    for n in range(last - 1):
        yield "  ".join(map(str.rjust, [str(n), *map(str, row(n))], widths))
    for cells in tail:
        yield "  ".join(map(str.rjust, cells, widths))


class _ChiStyle(NamedTuple):
    """The tokens one output format writes a chi polynomial with."""

    render: methodcaller  # writes a Polynomial: calls its to_text or to_latex
    powers: type  # the token table render writes a variable power with
    open: str  # parentheses around a group of several terms
    close: str
    group_t: str  # between a parenthesised group and its T power
    term_t: str  # between a single-term group and its T power
    frame: str  # the 1/N! frame, formatted with N! and the bracket


_TEXT = _ChiStyle(methodcaller("to_text"), _TextPowers, "(", ")", "*", "*", "1/{} * [{}]")
_LATEX = _ChiStyle(
    methodcaller("to_latex"), _LatexPowers, "\\left(", "\\right)", " ", " \\, ",
    "\\frac{{1}}{{{}}} \\left[ {} \\right]",
)


def _twist_grouped(bracket: Polynomial, style: _ChiStyle) -> str:
    """The bracket as a sum over powers of T, highest first."""
    groups = bracket.collect(TWIST)
    t_power = style.powers()
    t = _slot(TWIST)
    parts = []
    for k in sorted(groups, reverse=True):
        g = groups[k]
        body = style.render(g)
        if len(g) > 1:
            body = style.open + body + style.close
        if k:
            body += (style.group_t if len(g) > 1 else style.term_t) + t_power[t, k]
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
    table.row(args.rows)  # checks --rows, which the printer would skip if negative
    for line in format_stirling_rows(lambda n: table.row(n, signed=args.signed), args.rows):
        print(line)
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
    # A --dim below 1 is left to ChernVector, whose refusal names the dimension.
    if args.dim >= 1 and len(args.chern) != args.dim:
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


def run_bench(*args, **kwargs):
    """chipoly.bench.run_bench, imported on the first call: only the bench
    command needs that module."""
    from . import bench

    return bench.run_bench(*args, **kwargs)


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


def _stirling_flags(p) -> None:
    p.add_argument("--rows", type=_int_arg, required=True, help="last row N to print")
    p.add_argument("--signed", action="store_true", help="signed numbers s(N, m)")


def _powersum_flags(p) -> None:
    p.add_argument("--r", type=_int_arg, required=True, help="power-sum index")
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")


def _emit_chi_flags(p) -> None:
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=_int_arg, required=True)
    p.add_argument("--method", choices=METHODS, default="recursive")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")


def _emit_chi_twist_flags(p) -> None:
    p.add_argument("--rank", type=_rank_arg, required=True,
                   help="sheaf rank, or 'n' to keep it symbolic")
    p.add_argument("--dim", type=_int_arg, required=True)
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")


def _eval_flags(p) -> None:
    p.add_argument("--rank", type=_rank_arg, required=True)
    p.add_argument("--dim", type=_int_arg, required=True)
    p.add_argument("--chern", type=_chern_arg, required=True,
                   help="comma-separated integers c1,...,cN")
    p.add_argument("--twist", type=_int_arg, default=None,
                   help="also twist by O(t) before evaluating")


def _verify_flags(p) -> None:
    p.add_argument("--dim", type=_int_arg, required=True)
    p.add_argument("--rank", type=_int_arg, required=True)
    p.add_argument("--trials", type=_int_arg, default=50)
    p.add_argument("--max-a", type=_int_arg, default=4)
    p.add_argument("--seed", type=_int_arg, default=7)
    p.add_argument("--twist-range", type=_int_arg, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _bench_flags(p) -> None:
    from .bench import DEFAULT_MATRIX_CUTOFF

    p.add_argument("--dim", type=_int_arg, required=True)
    p.add_argument("--methods", type=_methods_arg, default=METHODS,
                   help="comma-separated subset of matrix,recursive")
    p.add_argument("--repetitions", type=_int_arg, default=3)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock limit in seconds")
    p.add_argument("--matrix-cutoff", type=_int_arg, default=DEFAULT_MATRIX_CUTOFF)
    p.add_argument("--format", choices=("text", "json"), default="text")


# (name, help, handler, flags): one row per subcommand, in listing order.
_SUBCOMMANDS = (
    ("stirling", "print the unsigned (or signed) Stirling triangle",
     _cmd_stirling, _stirling_flags),
    ("powersum", "print the power sum B_r in the C variables",
     _cmd_powersum, _powersum_flags),
    ("emit-chi", "print the chi polynomial for rank/dim",
     _cmd_emit_chi, _emit_chi_flags),
    ("emit-chi-twist", "print the twisted chi polynomial",
     _cmd_emit_chi_twist, _emit_chi_twist_flags),
    ("eval", "evaluate chi at a concrete Chern vector",
     _cmd_eval, _eval_flags),
    ("verify", "cross-check against split-bundle counts",
     _cmd_verify, _verify_flags),
    ("bench", "time the two power-sum routes",
     _cmd_bench, _bench_flags),
)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that is built when it first parses.

    Until then the object holds only its arguments: ArgumentParser.__init__,
    the handler and parser defaults and the flags all wait for the first
    parse_known_args, which is the one method argparse's subparsers action
    calls on it.  A command line parses one subcommand, so the other six
    are never built.  The top-level usage, help listing and invalid-choice
    message need only the subcommands' names and help texts, which the
    subparsers action keeps itself.
    """

    def __init__(self, *, handler, flags, **kwargs):
        self._pending = (handler, flags, kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            (handler, flags, kwargs), self._pending = self._pending, None
            super().__init__(**kwargs)
            self.set_defaults(handler=handler, parser=self)
            flags(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipoly",
        description="Exact Euler-characteristic polynomials on projective space.",
    )
    subs = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )
    for name, help_text, handler, flags in _SUBCOMMANDS:
        subs.add_parser(name, help=help_text, handler=handler, flags=flags)
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
    # The flags were read under CPython's limit on int-to-text digits
    # (3.11+), which guards input from outside; the results are exact and
    # are the output, so the command runs and writes them without it.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return args.handler(args)
    except ValueError as err:
        args.parser.error(str(err))
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
