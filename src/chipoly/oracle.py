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
degrees (see stirling._line_bundle_count).

The weights q_j(t) depend on the dimension and the twist, never on the
bundle, so verify checks its trials in blocks of _BLOCK: it draws a
block's bundles, then walks the twists once, computing each twist's
weights once and checking every trial of the block against them.  A
call keeps one block and one twist's weights, whatever the twist range,
and nothing once it returns.

Arguments are checked once, where they enter: verify checks its own,
SplitBundle the dimension and summand degrees, split_chi_twist its
twist.  Below that nothing is checked again (_weights does not check
the twist, nor _split_count or _line_bundle_count a degree), so each of
verify's checks costs one weighted sum and one split count.

Random bundles are drawn with a fixed 32-bit linear congruential
generator (state <- 1664525*state + 1013904223 mod 2^32, draws from the
top 16 bits, rejection-sampled to be uniform) so that a (seed, dim, rank)
triple reproduces the same trials on any platform or Python version.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from ._record import FrozenRecord, Record
from .algebra import _check_int
# verify checks _chi_numerator, the integer that evaluate_chi divides by
# N!.  evaluate_chi stays re-exported here under its own name because the
# benchmark harness wraps it as oracle.evaluate_chi; drop it when the
# benchmark next changes.
from .eulerchi import ChernVector, _chi_numerator, _weights, evaluate_chi  # noqa: F401
from .stirling import _line_bundle_count
from .symmfun import elementary_values

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MASK = 0xFFFFFFFF
# Largest verify max-a: Lcg.next_int draws from 16 bits, so bound <= 2^16.
MAX_A = (1 << 16) - 1
# Trials verify checks against one twist's weights: the default --trials
# (50) fits one block, so each twist's weights are computed once a call.
_BLOCK = 64


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


class SplitBundle(FrozenRecord):
    """A totally split bundle O(a_1) + ... + O(a_n) on projective dim-space.

    A frozen record of (dim, twists), the summands' degrees as a tuple.
    """

    __slots__ = __match_args__ = ("dim", "twists")

    def __init__(self, dim: int, twists: tuple):
        _check_int(dim, "dimension", 1)
        twists = tuple(twists)
        if not twists:
            raise ValueError("a split bundle needs at least one summand")
        for a in twists:
            _check_int(a, "summand degrees")
        set_field = object.__setattr__
        set_field(self, "dim", dim)
        set_field(self, "twists", twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def chern_vector(self) -> ChernVector:
        """Chern classes: the elementary symmetric functions of the degrees."""
        e = elementary_values(self.twists, self.dim)
        return ChernVector(self.dim, self.rank, tuple(e))


def _split_count(bundle: SplitBundle, t: int) -> int:
    """chi of the bundle twisted by O(t): its summands' counts, unchecked."""
    dim = bundle.dim
    total = 0
    for a in bundle.twists:  # not sum() of a generator: for a few summands it costs more
        total += _line_bundle_count(dim, a + t)
    return total


def split_chi(bundle: SplitBundle) -> int:
    """chi of the split bundle, summed over its line-bundle summands."""
    return _split_count(bundle, 0)


def split_chi_twist(bundle: SplitBundle, t: int) -> int:
    """chi of the split bundle twisted by O(t), once t is checked."""
    return _split_count(bundle, _check_int(t, "twist"))


class Mismatch(FrozenRecord):
    """One failed comparison, with everything needed to replay it.

    A frozen record of (trial, twists, t, expected, actual): t is None for
    the untwisted check, and actual is the rational value evaluate_chi gave.
    """

    __slots__ = __match_args__ = ("trial", "twists", "t", "expected", "actual")

    def __init__(self, trial: int, twists: tuple, t: int | None, expected: int,
                 actual: Fraction):
        set_field = object.__setattr__
        set_field(self, "trial", trial)
        set_field(self, "twists", twists)
        set_field(self, "t", t)
        set_field(self, "expected", expected)
        set_field(self, "actual", actual)


class VerifyReport(Record):
    """What verify checked and every mismatch it found.

    A mutable record of (dim, rank, trials, max_a, seed, twist_range,
    checks, mismatches): verify counts checks and appends mismatches as it
    goes.  Each report starts with its own empty list.
    """

    __slots__ = __match_args__ = (
        "dim", "rank", "trials", "max_a", "seed", "twist_range", "checks", "mismatches",
    )

    def __init__(self, dim: int, rank: int, trials: int, max_a: int, seed: int,
                 twist_range: int, checks: int = 0, mismatches: list | None = None):
        self.dim = dim
        self.rank = rank
        self.trials = trials
        self.max_a = max_a
        self.seed = seed
        self.twist_range = twist_range
        self.checks = checks
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        import json

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
    evaluate_chi would give, in trial order and each trial's in twist
    order, though the checks run in blocks of _BLOCK trials.
    """
    _check_int(dim, "dimension", 1)
    _check_int(rank, "rank", 1)
    _check_int(trials, "trials", 1)
    _check_int(max_a, "max-a", 0, MAX_A)
    _check_int(twist_range, "twist-range", 0)
    rng = Lcg(seed)
    report = VerifyReport(dim, rank, trials, max_a, seed, twist_range)
    fact = math.factorial(dim)
    for start in range(0, trials, _BLOCK):
        block = []
        for trial in range(start, min(start + _BLOCK, trials)):
            bundle = SplitBundle(dim, tuple(rng.next_int(max_a + 1) for _ in range(rank)))
            block.append((trial, bundle, bundle.chern_vector()))
        # t = None is the untwisted check, then every twist in order.
        for t in chain((None,), range(-twist_range, twist_range + 1)):
            shift = 0 if t is None else t
            weights = _weights(dim, shift)
            for trial, bundle, cv in block:
                got = _chi_numerator(weights, cv)
                want = _split_count(bundle, shift)
                if got != fact * want:
                    report.mismatches.append(
                        Mismatch(trial, bundle.twists, t, want, Fraction(got, fact)))
    report.checks = trials * (2 * twist_range + 2)
    report.mismatches.sort(key=attrgetter("trial"))  # stable: twist order within a trial
    return report
