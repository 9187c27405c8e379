import json
import math
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest

import chipoly.oracle as oracle_mod
from chipoly.eulerchi import evaluate_chi
from chipoly.oracle import (
    Lcg,
    Mismatch,
    SplitBundle,
    VerifyReport,
    split_chi,
    split_chi_twist,
    verify,
)
from chipoly.stirling import h0_line_bundle


def test_lcg_is_the_documented_generator():
    # first step from seed 7: state = 1664525*7 + 1013904223 = 1025555898,
    # top 16 bits 15648, 15648 % 6 = 0
    g = Lcg(7)
    assert g.next_int(6) == 0
    assert g.state == 1025555898


def test_lcg_frozen_sequences():
    assert [Lcg(7).next_int(6) for _ in range(1)] == [0]
    g = Lcg(7)
    assert [g.next_int(6) for _ in range(10)] == [0, 4, 0, 0, 5, 2, 5, 0, 1, 1]
    g = Lcg(123)
    assert [g.next_int(6) for _ in range(10)] == [0, 4, 1, 3, 5, 0, 0, 0, 5, 2]


def test_lcg_frozen_sequence_with_rejected_draws():
    """At bound 60001 (verify's --max-a 60000) 5535 of the 65536 top-16-bit
    draws are rejected.  From seed 6 the 3rd, 7th and 10th draws (60803,
    60945 and 60718) are, so ten values take thirteen draws, and none of
    the three appears reduced mod 60001."""
    g = Lcg(6)
    assert [g.next_int(60001) for _ in range(10)] == [
        15623, 53922, 58324, 25092, 7082, 8975, 36704, 34018, 55472, 31129]
    assert g.state == 2040093945  # the thirteenth state


def test_lcg_seed_masking_and_bounds():
    a = Lcg(7)
    b = Lcg(2**40 + 7)
    assert [a.next_int(6) for _ in range(8)] == [b.next_int(6) for _ in range(8)]
    g = Lcg(0)
    for bound in (1, 2, 17):
        for _ in range(50):
            assert 0 <= g.next_int(bound) < bound
    with pytest.raises(ValueError):
        Lcg(1).next_int(0)
    with pytest.raises(ValueError):
        Lcg(1).next_int(1 << 20)


def test_split_bundle_validation():
    with pytest.raises(ValueError):
        SplitBundle(0, (1,))
    with pytest.raises(ValueError):
        SplitBundle(2, ())
    with pytest.raises(ValueError):
        SplitBundle(2, (1, 1.5))
    with pytest.raises(ValueError):
        SplitBundle(2, (1, True))
    with pytest.raises(ValueError):
        SplitBundle(True, (1,))
    # O(-1) is a line bundle too: chi(O(1) + O(-1)) on P^2 is 3 + 0.
    assert split_chi(SplitBundle(2, (1, -1))) == 3
    sb = SplitBundle(3, [1, 2])
    assert sb.twists == (1, 2)
    assert sb.rank == 2


def test_split_chi_examples():
    assert split_chi(SplitBundle(3, (0,))) == 1
    assert split_chi(SplitBundle(3, (1, 2))) == 14
    assert split_chi(SplitBundle(2, (3, 3, 3))) == 30


def test_split_chi_twist_examples():
    assert split_chi_twist(SplitBundle(1, (2, 3)), 1) == 9
    assert split_chi_twist(SplitBundle(2, (0,)), -1) == 0
    for sb in (SplitBundle(2, (1, 4)), SplitBundle(4, (0, 2, 2))):
        assert split_chi_twist(sb, 0) == split_chi(sb)


def test_split_chi_twist_forward_differences():
    # degree-N polynomial in t with leading coefficient rank/N!: the N-th
    # forward difference is the constant rank
    sb = SplitBundle(3, (0, 2, 5, 1))
    values = [split_chi_twist(sb, t) for t in range(-3, 5)]
    for _ in range(sb.dim):
        values = [b - a for a, b in zip(values, values[1:])]
    assert all(v == sb.rank for v in values)


@pytest.mark.parametrize("dim", range(1, 7))
def test_negative_degrees_match_polynomial(dim):
    for degrees in ((-1,), (-3, 2), (-7, 0, 5), (-2, -2, -9, 4), (-dim - 1, -dim, 1)):
        sb = SplitBundle(dim, degrees)
        cv = sb.chern_vector()
        assert evaluate_chi(cv) == split_chi(sb), degrees
        for t in range(-3, 4):
            assert evaluate_chi(cv, t) == split_chi_twist(sb, t), (degrees, t)


def test_chern_vector_of_bundle():
    cv = SplitBundle(3, (1, 2)).chern_vector()
    assert cv.dim == 3
    assert cv.rank == 2
    assert cv.classes == (3, 2, 0)


def test_verify_all_pass():
    report = verify(dim=3, rank=3, trials=50, max_a=4, seed=7)
    assert report.ok
    assert report.checks == 50 * 10
    assert report.mismatches == []
    text = report.to_text()
    assert "all comparisons agree" in text
    assert "checks: 500" in text


def test_verify_deterministic():
    a = verify(dim=2, rank=4, trials=20, max_a=5, seed=99, twist_range=2)
    b = verify(dim=2, rank=4, trials=20, max_a=5, seed=99, twist_range=2)
    assert a.to_json() == b.to_json()


def test_verify_json_shape():
    report = verify(dim=1, rank=1, trials=2, max_a=3, seed=5, twist_range=1)
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["dim"] == 1
    assert payload["checks"] == 2 * 4
    assert payload["mismatches"] == []


def test_verify_validation():
    with pytest.raises(ValueError):
        verify(dim=2, rank=2, trials=0, max_a=3, seed=1)
    with pytest.raises(ValueError):
        verify(dim=2, rank=2, trials=1, max_a=-1, seed=1)
    with pytest.raises(ValueError):
        verify(dim=2, rank=2, trials=1, max_a=3, seed=1, twist_range=-2)


def test_verify_reports_mismatch_with_witness(monkeypatch):
    # force a disagreement to exercise the reporting path: verify compares
    # N! * chi, so chi + 1 at t = 2 is the integer seam plus N!
    real = oracle_mod._chi_numerator

    def broken(cv, twist=None):
        value = real(cv, twist)
        if twist == 2:
            return value + math.factorial(cv.dim)
        return value

    monkeypatch.setattr(oracle_mod, "_chi_numerator", broken)
    report = verify(dim=2, rank=2, trials=3, max_a=3, seed=11, twist_range=2)
    assert not report.ok
    assert len(report.mismatches) == 3
    m = report.mismatches[0]
    assert m.t == 2
    assert m.expected + 1 == m.actual
    assert len(m.twists) == 2
    text = report.to_text()
    assert "MISMATCHES" in text
    assert "t=2" in text
    payload = json.loads(report.to_json())
    assert payload["ok"] is False
    assert payload["mismatches"][0]["t"] == 2


def test_verify_without_mismatch_builds_no_fraction(monkeypatch):
    made = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for dim, max_a in ((1, 4), (6, 60000), (12, 4), (12, 65535)):
        report = verify(dim=dim, rank=3, trials=5, max_a=max_a, seed=91, twist_range=4)
        assert report.ok and report.checks == 5 * 10
    assert made == []
    # The hook does see the Fraction a mismatch is reported with.
    real = oracle_mod._chi_numerator
    monkeypatch.setattr(oracle_mod, "_chi_numerator", lambda cv, t=None: real(cv, t) + 1)
    report = verify(dim=3, rank=2, trials=1, max_a=4, seed=91, twist_range=0)
    assert len(report.mismatches) == 2
    assert made and all(isinstance(m.actual, Fraction) for m in report.mismatches)
    assert [m.actual - m.expected for m in report.mismatches] == [Fraction(1, 6)] * 2


def test_line_bundle_trivial_case():
    sb = SplitBundle(1, (0,))
    assert split_chi(sb) == 1
    cv = sb.chern_vector()
    from chipoly.eulerchi import evaluate_chi

    assert evaluate_chi(cv) == Fraction(1)


def _reference_verify(dim, rank, trials, max_a, seed, twist_range):
    """verify as a plain loop: every twist, then a checked count per summand.

    The production _chi_numerator is read from the oracle module, so a
    fault patched in there reaches both this loop and verify.
    """
    rng = Lcg(seed)
    report = VerifyReport(dim, rank, trials, max_a, seed, twist_range)
    fact = math.factorial(dim)
    for trial in range(trials):
        degrees = tuple(rng.next_int(max_a + 1) for _ in range(rank))
        cv = SplitBundle(dim, degrees).chern_vector()
        for t in chain((None,), range(-twist_range, twist_range + 1)):
            got = oracle_mod._chi_numerator(cv, t)
            want = sum(h0_line_bundle(dim, a + (t or 0)) for a in degrees)
            report.checks += 1
            if got != fact * want:
                report.mismatches.append(Mismatch(trial, degrees, t, want, Fraction(got, fact)))
    return report


def _differential_cases():
    # twist_range dim + 2 > dim, so with max-a 0 (and small draws) a + t
    # falls below -dim and the counts take the reflection branch.
    for dim in range(1, 15):
        for rank in (1, 3, 5):
            for max_a in (0, 4, 65535):
                for seed in (1, 7, 2024):
                    yield dim, rank, 3, max_a, seed, dim + 2


def test_verify_matches_the_reference_loop_byte_for_byte():
    for case in _differential_cases():
        want = _reference_verify(*case)
        got = verify(*case)
        assert got.ok and want.ok, case
        assert got.to_text() == want.to_text(), case
        assert got.to_json() == want.to_json(), case


def test_verify_matches_the_reference_loop_under_a_fault(monkeypatch):
    real = oracle_mod._chi_numerator

    def faulty(cv, twist=None):
        # Off by one at about a third of the checks, the untwisted ones included.
        value = real(cv, twist)
        return value + 1 if (sum(cv.classes) + (twist or 0)) % 3 == 0 else value

    monkeypatch.setattr(oracle_mod, "_chi_numerator", faulty)
    for case in _differential_cases():
        want = _reference_verify(*case)
        got = verify(*case)
        assert want.mismatches, case
        assert got.mismatches == want.mismatches, case
        assert got.to_text() == want.to_text(), case
        assert got.to_json() == want.to_json(), case


def test_verify_streams_the_twist_window(monkeypatch):
    """--twist-range has no upper limit: the window is walked, never built."""

    class Enough(Exception):
        pass

    real = oracle_mod._chi_numerator
    calls = []

    def counted(cv, twist=None):
        calls.append(twist)
        if len(calls) > 20:
            raise Enough
        return real(cv, twist)

    monkeypatch.setattr(oracle_mod, "_chi_numerator", counted)
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            verify(dim=2, rank=1, trials=1, max_a=0, seed=1, twist_range=10**15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls[:3] == [None, -10**15, -10**15 + 1]
    assert peak < 1 << 20
