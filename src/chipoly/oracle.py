"""Splitting-principle cross-check for the chi polynomials.

A direct sum of line bundles O(a_1) + ... + O(a_n) on projective N-space
has Euler characteristic sum_i binom(a_i + N, N) (the binomial read as a
polynomial in a_i, so any integer degree counts, negative ones included),
and twisting by O(t) just shifts every a_i by t.  Neither fact goes
through Stirling numbers, Newton's identities, or any symbolic algebra,
so comparing evaluate_chi at the elementary symmetric functions of the a_i
against these counts is an independent check of its parts: the power sums
p_j of the roots, from the integer Newton recurrence, weighted by the q_j
that chi and G are assembled from.  Each check compares N! * chi, the
integer that evaluate_chi divides by N!, with N! times the count, so it
builds no Fraction; only a mismatch is reported as the rational value.
The counts come from math.comb, with the reflection rule for negative
degrees (see h0_line_bundle).

Random bundles are drawn with a fixed 32-bit linear congruential
generator (state <- 1664525*state + 1013904223 mod 2^32, draws from the
top 16 bits, rejection-sampled to be uniform) so that a (seed, dim, rank)
triple reproduces the same trials on any platform or Python version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .algebra import _check_int
# verify checks _chi_numerator, the integer that evaluate_chi divides by
# N!; evaluate_chi stays importable from this module under its own name.
from .eulerchi import ChernVector, _chi_numerator, evaluate_chi  # noqa: F401
from .stirling import h0_line_bundle
from .symmfun import elementary_values

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MASK = 0xFFFFFFFF
# Largest verify max-a: Lcg.next_int draws from 16 bits, so bound <= 2^16.
MAX_A = (1 << 16) - 1


class Lcg:
    """Deterministic 32-bit linear congruential generator."""

    def __init__(self, seed: int):
        self.state = _check_int(seed, "seed") & _LCG_MASK

    def next_int(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 (rejection on the top 16 bits)."""
        _check_int(bound, "bound", 1, 1 << 16)
        limit = (1 << 16) - ((1 << 16) % bound)
        while True:
            self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
            draw = self.state >> 16
            if draw < limit:
                return draw % bound


@dataclass(frozen=True)
class SplitBundle:
    """A totally split bundle O(a_1) + ... + O(a_n) on projective dim-space."""

    dim: int
    twists: tuple

    def __post_init__(self):
        _check_int(self.dim, "dimension", 1)
        twists = tuple(self.twists)
        if not twists:
            raise ValueError("a split bundle needs at least one summand")
        for a in twists:
            _check_int(a, "summand degrees")
        object.__setattr__(self, "twists", twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def chern_vector(self) -> ChernVector:
        """Chern classes: the elementary symmetric functions of the degrees."""
        e = elementary_values(self.twists, self.dim)
        return ChernVector(self.dim, self.rank, tuple(e))


def split_chi(bundle: SplitBundle) -> int:
    """chi of the split bundle, summed over its line-bundle summands."""
    return sum(h0_line_bundle(bundle.dim, a) for a in bundle.twists)


def split_chi_twist(bundle: SplitBundle, t: int) -> int:
    """chi of the split bundle twisted by O(t)."""
    return sum(h0_line_bundle(bundle.dim, a + t) for a in bundle.twists)


@dataclass(frozen=True)
class Mismatch:
    """One failed comparison, with everything needed to replay it."""

    trial: int
    twists: tuple
    t: int | None
    expected: int
    actual: Fraction


@dataclass
class VerifyReport:
    dim: int
    rank: int
    trials: int
    max_a: int
    seed: int
    twist_range: int
    checks: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "rank": self.rank,
                "trials": self.trials,
                "max_a": self.max_a,
                "seed": self.seed,
                "twist_range": self.twist_range,
                "checks": self.checks,
                "ok": self.ok,
                "mismatches": [
                    {
                        "trial": m.trial,
                        "twists": list(m.twists),
                        "t": m.t,
                        "expected": m.expected,
                        "actual": str(m.actual),
                    }
                    for m in self.mismatches
                ],
            }
        )

    def to_text(self) -> str:
        lines = [
            f"verify dim={self.dim} rank={self.rank} trials={self.trials} "
            f"max-a={self.max_a} seed={self.seed} twist-range={self.twist_range}",
            f"checks: {self.checks}",
        ]
        if self.ok:
            lines.append("all comparisons agree")
        else:
            lines.append(f"MISMATCHES: {len(self.mismatches)}")
            for m in self.mismatches:
                where = "untwisted" if m.t is None else f"t={m.t}"
                lines.append(
                    f"  trial {m.trial} a={list(m.twists)} {where}: "
                    f"polynomial gave {m.actual}, direct count {m.expected}"
                )
        return "\n".join(lines)


def verify(
    dim: int,
    rank: int,
    trials: int,
    max_a: int,
    seed: int,
    twist_range: int = 4,
) -> VerifyReport:
    """Compare evaluate_chi against direct counts on random bundles.

    Each trial draws rank degrees uniformly from 0..max_a, forms the
    split bundle's Chern vector, and checks the untwisted value plus
    every twist t in -twist_range..twist_range.  A check compares
    N! * chi (_chi_numerator) with N! times the count, in integers; any
    disagreement lands in the report with its inputs and the value
    evaluate_chi would give.
    """
    _check_int(dim, "dimension", 1)
    _check_int(rank, "rank", 1)
    _check_int(trials, "trials", 1)
    _check_int(max_a, "max-a", 0, MAX_A)
    _check_int(twist_range, "twist-range", 0)
    rng = Lcg(seed)
    report = VerifyReport(dim, rank, trials, max_a, seed, twist_range)
    fact = math.factorial(dim)
    for trial in range(trials):
        degrees = tuple(rng.next_int(max_a + 1) for _ in range(rank))
        bundle = SplitBundle(dim, degrees)
        cv = bundle.chern_vector()
        # t = None is the untwisted check, then every twist in order.
        for t in chain((None,), range(-twist_range, twist_range + 1)):
            got = _chi_numerator(cv, t)
            want = split_chi(bundle) if t is None else split_chi_twist(bundle, t)
            report.checks += 1
            if got != fact * want:
                report.mismatches.append(Mismatch(trial, degrees, t, want, Fraction(got, fact)))
    return report
