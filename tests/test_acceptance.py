"""End-to-end acceptance checks.

One test per acceptance criterion; the conftest summary hook prints a
PASS/FAIL line for each after the run.  Stated runtime budgets are
asserted with wall-clock measurements taken around the relevant work.
"""

import math
import time

import pytest

from chipoly.algebra import AUX, RANK, Polynomial, chern
from chipoly.bench import run_bench
from chipoly.eulerchi import (
    build_chi_polynomial,
    chi_polynomial,
    chi_twist_polynomial,
    prefactor_parts,
)
from chipoly.oracle import verify
from chipoly.stirling import (
    StirlingTable,
    falling_factorial_poly,
    rising_factorial_poly,
)
from chipoly.symmfun import PowerSumCache, power_sum_matrix, power_sum_recursive

BRACKET_DIM4 = (
    "C1^4 + 10*C1^3 - 4*C1^2*C2 + 35*C1^2 - 30*C1*C2 + 4*C1*C3 + 2*C2^2"
    " + 50*C1 - 70*C2 + 30*C3 - 4*C4"
)

BRACKET_DIM5 = (
    "C1^5 + 15*C1^4 - 5*C1^3*C2 + 85*C1^3 - 60*C1^2*C2 + 5*C1^2*C3"
    " + 5*C1*C2^2 + 225*C1^2 - 255*C1*C2 + 60*C1*C3 - 5*C1*C4 + 30*C2^2"
    " - 5*C2*C3 + 274*C1 - 450*C2 + 255*C3 - 60*C4 + 5*C5"
)

TWIST_DIM6_GROUPS = {
    6: "6",
    5: "6*C1 + 126",
    4: "15*C1^2 + 105*C1 - 30*C2 + 1050",
    3: "20*C1^3 + 210*C1^2 - 60*C1*C2 + 700*C1 - 420*C2 + 60*C3 + 4410",
    2: (
        "15*C1^4 + 210*C1^3 - 60*C1^2*C2 + 1050*C1^2 - 630*C1*C2"
        " + 60*C1*C3 + 30*C2^2 + 2205*C1 - 2100*C2 + 630*C3 - 60*C4 + 9744"
    ),
    1: (
        "6*C1^5 + 105*C1^4 - 30*C1^3*C2 + 700*C1^3 - 420*C1^2*C2"
        " + 30*C1^2*C3 + 30*C1*C2^2 + 2205*C1^2 - 2100*C1*C2 + 420*C1*C3"
        " - 30*C1*C4 + 210*C2^2 - 30*C2*C3 + 3248*C1 - 4410*C2 + 2100*C3"
        " - 420*C4 + 30*C5 + 10584"
    ),
    0: (
        "C1^6 + 21*C1^5 - 6*C1^4*C2 + 175*C1^4 - 105*C1^3*C2 + 6*C1^3*C3"
        " + 9*C1^2*C2^2 + 735*C1^3 - 700*C1^2*C2 + 105*C1^2*C3 - 6*C1^2*C4"
        " + 105*C1*C2^2 - 12*C1*C2*C3 - 2*C2^3 + 1624*C1^2 - 2205*C1*C2"
        " + 700*C1*C3 - 105*C1*C4 + 6*C1*C5 + 350*C2^2 - 105*C2*C3 + 6*C2*C4"
        " + 3*C3^2 + 1764*C1 - 3248*C2 + 2205*C3 - 700*C4 + 105*C5 - 6*C6"
    ),
}

STIRLING_ROWS_0_TO_8 = [
    (1,),
    (0, 1),
    (0, 1, 1),
    (0, 2, 3, 1),
    (0, 6, 11, 6, 1),
    (0, 24, 50, 35, 10, 1),
    (0, 120, 274, 225, 85, 15, 1),
    (0, 720, 1764, 1624, 735, 175, 21, 1),
    (0, 5040, 13068, 13132, 6769, 1960, 322, 28, 1),
]


def C(i):
    return Polynomial.variable(chern(i))


def test_criterion_1_chi_dim4_bracket():
    start = time.perf_counter()
    c1, c2, c3, c4 = (C(i) for i in range(1, 5))
    expected = (
        c1**4 + 10 * c1**3 - 4 * c1**2 * c2 + 35 * c1**2 - 30 * c1 * c2
        + 4 * c1 * c3 + 2 * c2**2 + 50 * c1 - 70 * c2 + 30 * c3 - 4 * c4
    )
    bracket, tail = prefactor_parts(chi_polynomial(None, 4), 4)
    elapsed = time.perf_counter() - start
    assert tail == Polynomial.variable(RANK)
    assert len(bracket) == 11
    assert bracket == expected
    assert bracket.to_text() == BRACKET_DIM4
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_2_chi_dim5_bracket():
    start = time.perf_counter()
    c1, c2, c3, c4, c5 = (C(i) for i in range(1, 6))
    expected = (
        c1**5 + 15 * c1**4 - 5 * c1**3 * c2 + 85 * c1**3 - 60 * c1**2 * c2
        + 5 * c1**2 * c3 + 5 * c1 * c2**2 + 225 * c1**2 - 255 * c1 * c2
        + 60 * c1 * c3 - 5 * c1 * c4 + 30 * c2**2 - 5 * c2 * c3 + 274 * c1
        - 450 * c2 + 255 * c3 - 60 * c4 + 5 * c5
    )
    bracket, tail = prefactor_parts(chi_polynomial(None, 5), 5)
    elapsed = time.perf_counter() - start
    assert tail == Polynomial.variable(RANK)
    assert len(bracket) == 18
    assert bracket == expected
    assert bracket.to_text() == BRACKET_DIM5
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_3_twisted_chi_dim6_bracket():
    start = time.perf_counter()
    poly = chi_twist_polynomial(6, 6)
    bracket, tail = prefactor_parts(poly, 6)
    groups = {k: g.to_text() for k, g in bracket.collect("T").items()}
    elapsed = time.perf_counter() - start

    assert tail == 6
    residuals = {
        k: (groups.get(k, "0"), want)
        for k, want in TWIST_DIM6_GROUPS.items()
        if groups.get(k, "0") != want
    }
    for k, (got, want) in sorted(residuals.items()):
        print(f"criterion 3 residual at T^{k}:\n  got  {got}\n  want {want}")
    if not residuals:
        print("criterion 3 residuals: none")
    assert not residuals
    assert set(groups) == set(TWIST_DIM6_GROUPS)

    numeric = {k: bracket.collect("T")[k].constant_term() for k in range(1, 7)}
    assert numeric == {6: 6, 5: 126, 4: 1050, 3: 4410, 2: 9744, 1: 10584}
    c1 = C(1)
    c2 = C(2)
    by_power = bracket.collect("T")
    assert by_power[5] == 6 * c1 + 126
    assert by_power[4] == 15 * c1**2 + 105 * c1 + 1050 - 30 * c2
    constant_part = by_power[0]
    assert constant_part.coefficient({"C1": 6}) == 1
    assert constant_part.coefficient({"C1": 5}) == 21
    assert constant_part.coefficient({"C1": 3}) == 735
    assert constant_part.coefficient({"C1": 2}) == 1624
    assert constant_part.coefficient({"C1": 1}) == 1764
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_criterion_4_stirling_rows():
    start = time.perf_counter()
    table = StirlingTable()
    for n, expected in enumerate(STIRLING_ROWS_0_TO_8):
        assert table.row(n) == expected, f"row {n}"
    assert table.unsigned(5, 4) == 10
    assert table.unsigned(5, 4) == math.comb(5, 2)
    for n in range(16):
        assert sum(table.row(n)) == math.factorial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_5_split_bundle_oracle():
    start = time.perf_counter()
    total = 0
    for dim in range(1, 7):
        for rank in range(dim, dim + 4):
            report = verify(dim, rank, trials=200, max_a=5, seed=7, twist_range=4)
            assert report.ok, report.to_text()
            assert report.checks == 200 * 10
            total += report.checks
    elapsed = time.perf_counter() - start
    print(f"criterion 5: {total} exact comparisons in {elapsed:.1f}s")
    assert total == 24 * 2000
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@pytest.mark.slow
def test_criterion_6_method_agreement():
    for r in range(1, 13):
        assert power_sum_matrix(r) == power_sum_recursive(r), f"r={r}"
    for dim in range(1, 13):
        a = chi_polynomial(None, dim, "matrix")
        b = chi_polynomial(None, dim, "recursive")
        assert a == b, f"dim={dim}"


def test_criterion_7_identity_suite():
    x = Polynomial.variable(AUX)
    for n in range(1, 16):
        rising = Polynomial.constant(1)
        falling = Polynomial.constant(1)
        for j in range(1, n + 1):
            rising = rising * (x + j)
            falling = falling * (x - (j - 1))
        assert rising_factorial_poly(n) == rising, f"rising n={n}"
        assert falling_factorial_poly(n) == falling, f"falling n={n}"

    for r in range(1, 11):
        acc = (-1) ** r * r * C(r)
        for l in range(1, r + 1):
            e = Polynomial.constant(1) if l == r else C(r - l)
            acc = acc + (-1) ** (r + l) * power_sum_recursive(l) * e
        assert acc.is_zero, f"Newton identity r={r}"

    for dim in range(1, 21):
        bracket, _ = prefactor_parts(chi_polynomial(None, dim), dim)
        assert all(c.denominator == 1 for _, c in bracket.terms()), f"dim={dim}"


def test_criterion_8a_recursive_dim20():
    start = time.perf_counter()
    poly = build_chi_polynomial(None, 20, "recursive", PowerSumCache())
    elapsed = time.perf_counter() - start
    print(f"criterion 8a: dim 20 recursive build in {elapsed:.2f}s")
    assert poly == chi_polynomial(None, 20)
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@pytest.mark.slow
def test_criterion_8b_bench_dim14():
    report = run_bench(14, repetitions=3)
    by_name = {t.method: t for t in report.timings}
    rec = by_name["recursive"].median_seconds
    mat = by_name["matrix"].median_seconds
    print(f"criterion 8b: dim 14 medians over 3 runs: "
          f"recursive {rec:.4f}s, matrix {mat:.4f}s")
    assert report.agreement is True
    assert rec is not None and mat is not None
    assert rec < mat
