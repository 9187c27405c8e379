"""Splitting-principle cross-check for the chi polynomials.

A direct sum of line bundles O(a_1) + ... + O(a_n) on projective N-space
has Euler characteristic sum_i binom(a_i + N, N) (the binomial read as a
polynomial in a_i, so any integer degree counts, negative ones included),
and twisting by O(t) just shifts every a_i by t.  Neither fact goes through Stirling numbers,
Newton's identities, or any symbolic algebra, so evaluating the chi
polynomials at the elementary symmetric functions of the a_i and
comparing against these counts is an independent end-to-end check of the
whole pipeline.

Random bundles are drawn with a fixed 32-bit linear congruential
generator (state <- 1664525*state + 1013904223 mod 2^32, draws from the
top 16 bits, rejection-sampled to be uniform) so that a (seed, dim, rank)
triple reproduces the same trials on any platform or Python version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .eulerchi import ChernVector, evaluate_chi
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
        self.state = seed & _LCG_MASK

    def next_int(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 (rejection on the top 16 bits)."""
        if bound < 1 or bound > 1 << 16:
            raise ValueError(f"bound must be in 1..65536, got {bound}")
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
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        twists = tuple(self.twists)
        if not twists:
            raise ValueError("a split bundle needs at least one summand")
        for a in twists:
            if not isinstance(a, int):
                raise ValueError(f"summand degrees must be integers, got {a!r}")
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
    """Compare the chi polynomials against direct counts on random bundles.

    Each trial draws rank degrees uniformly from 0..max_a, forms the
    split bundle's Chern vector, and checks the untwisted value plus
    every twist t in -twist_range..twist_range.  Exact arithmetic
    throughout; any disagreement lands in the report with its inputs.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if max_a < 0 or max_a > MAX_A:
        raise ValueError(f"max-a must be in 0..{MAX_A}, got {max_a}")
    if twist_range < 0:
        raise ValueError(f"twist-range must be nonnegative, got {twist_range}")
    report = VerifyReport(dim, rank, trials, max_a, seed, twist_range)
    rng = Lcg(seed)
    for trial in range(trials):
        degrees = tuple(rng.next_int(max_a + 1) for _ in range(rank))
        bundle = SplitBundle(dim, degrees)
        cv = bundle.chern_vector()
        got = evaluate_chi(cv)
        want = split_chi(bundle)
        report.checks += 1
        if got != want:
            report.mismatches.append(Mismatch(trial, degrees, None, want, got))
        for t in range(-twist_range, twist_range + 1):
            got = evaluate_chi(cv, t)
            want = split_chi_twist(bundle, t)
            report.checks += 1
            if got != want:
                report.mismatches.append(Mismatch(trial, degrees, t, want, got))
    return report
