"""Output gate: checks every command's result outside the timed region.

- Every command exits 0.
- The SHA-256 of its stdout equals the digest recorded from the commit
  that added the benchmark (digests.json), so output stays
  byte-identical.  bench prints timings and the machine, so its digest
  is taken over bench_normal_form.
- verify reports the expected number of checks and no mismatch.
- bench reports that the two routes agree.
- Emitted JSON polynomials, evaluated here in exact arithmetic, match
  split_chi / split_chi_twist on seeded split bundles.

Each function returns a list of failure reasons; empty means the command
passed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from math import lcm

from chipoly import SplitBundle, split_chi, split_chi_twist

AGREEMENT_LINE = "agreement: methods produced identical polynomials"
SPLIT_BUNDLES_PER_POLY = 3
TWISTS_PER_BUNDLE = 2


def flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def key(argv: list) -> str:
    return " ".join(argv)


def bench_normal_form(text: str) -> str:
    """bench's stdout with timings and the machine line blanked."""
    lines = []
    for line in text.splitlines():
        if line.startswith("machine: "):
            line = "machine: #"
        elif line.startswith("  "):
            line = re.sub(r"\d+\.\d+", "#", line)
        lines.append(line)
    return "\n".join(lines)


def stdout_digest(argv: list, sha256: str, stdout: str | None) -> str:
    if argv[0] == "bench":
        return hashlib.sha256(bench_normal_form(stdout).encode()).hexdigest()
    return sha256


def expected_checks(argv: list) -> int:
    return int(flag(argv, "--trials")) * (2 * int(flag(argv, "--twist-range")) + 2)


def check_command(record: dict, digests: dict) -> list:
    """Exit code, digest and per-command checks for one command's result."""
    argv = record["argv"]
    if record["error"] is not None:
        return [f"raised {record['error']}"]
    failures = []
    if record["code"] != 0:
        failures.append(f"exit code {record['code']}")
    want = digests.get(key(argv))
    got = stdout_digest(argv, record["sha256"], record["stdout"])
    if want != got:
        failures.append(f"stdout digest {got[:12]} != recorded {str(want)[:12]}")
    lines = (record["stdout"] or "").splitlines()
    if argv[0] == "verify":
        if f"checks: {expected_checks(argv)}" not in lines:
            failures.append(f"expected checks: {expected_checks(argv)}")
        if "all comparisons agree" not in lines:
            failures.append("verify reported mismatches")
    elif argv[0] == "bench" and AGREEMENT_LINE not in lines:
        failures.append("bench agreement line missing")
    return failures


def _evaluate(terms: list, point: dict) -> Fraction:
    """Exact value of a parsed JSON polynomial at an integer point."""
    coeffs = [Fraction(t["coeff"]) for t in terms]
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    total = 0
    for t, c in zip(terms, coeffs):
        v = c.numerator * (den // c.denominator)
        for var, e in t["exps"].items():
            v *= point[var] ** e
        total += v
    return Fraction(total, den)


def split_bundle_check(argv: list, stdout: str, rng: random.Random) -> list:
    """Evaluate an emitted JSON polynomial at seeded split bundles."""
    dim = int(flag(argv, "--dim"))
    rank_arg = flag(argv, "--rank")
    twisted = argv[0] == "emit-chi-twist"
    try:
        terms = json.loads(stdout)["terms"]
    except (ValueError, KeyError, TypeError):
        return ["stdout is not a JSON polynomial"]
    failures = []
    for _ in range(SPLIT_BUNDLES_PER_POLY):
        rank = rng.randint(1, 4) if rank_arg == "n" else int(rank_arg)
        bundle = SplitBundle(dim, tuple(rng.randint(0, 6) for _ in range(rank)))
        point = {f"C{i}": c for i, c in enumerate(bundle.chern_vector().classes, 1)}
        point["n"] = rank
        if twisted:
            cases = [(t, split_chi_twist(bundle, t)) for t in rng.sample(range(-3, 4), TWISTS_PER_BUNDLE)]
        else:
            cases = [(None, split_chi(bundle))]
        for t, want in cases:
            point["T"] = t
            got = _evaluate(terms, point)
            if got != want:
                failures.append(f"a={list(bundle.twists)} t={t}: polynomial {got}, split count {want}")
    return failures
