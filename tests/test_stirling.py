import math
import threading
import tracemalloc
from fractions import Fraction

import pytest

from chipoly.algebra import Polynomial
from chipoly.oracle import SplitBundle, split_chi_twist
from chipoly.stirling import (
    StirlingTable,
    _line_bundle_count,
    falling_factorial_poly,
    h0_line_bundle,
    rising_factorial_poly,
    signed_stirling1,
    unsigned_stirling1,
)

X = Polynomial.variable("X")


def test_triangle_conventions():
    assert unsigned_stirling1(0, 0) == 1
    for n in range(1, 10):
        assert unsigned_stirling1(n, 0) == 0
        assert unsigned_stirling1(n, n) == 1
    assert unsigned_stirling1(3, 7) == 0
    assert unsigned_stirling1(-1, 0) == 0
    assert unsigned_stirling1(4, -2) == 0


def test_known_entries():
    assert unsigned_stirling1(6, 3) == 225
    assert unsigned_stirling1(8, 4) == 6769
    # (N, N-1) is the count of permutations with a single 2-cycle
    for n in range(2, 12):
        assert unsigned_stirling1(n, n - 1) == math.comb(n, 2)
    assert unsigned_stirling1(5, 4) == 10


def test_recurrence_consistency():
    for n in range(1, 26):
        for m in range(1, n + 1):
            assert unsigned_stirling1(n, m) == unsigned_stirling1(
                n - 1, m - 1
            ) + (n - 1) * unsigned_stirling1(n - 1, m)


def test_row_sums_are_factorials():
    table = StirlingTable()
    for n in range(16):
        assert sum(table.row(n)) == math.factorial(n)


def test_signed_values():
    assert signed_stirling1(4, 2) == 11
    assert signed_stirling1(4, 1) == -6
    for n in range(10):
        assert signed_stirling1(n, n) == 1


def test_signed_row():
    table = StirlingTable()
    assert table.row(4, signed=True) == (0, -6, 11, -6, 1)
    for n in range(61):
        assert table.row(n, signed=True) == tuple(signed_stirling1(n, m) for m in range(n + 1))


def test_row_readers_do_not_look_up_single_entries(monkeypatch):
    # Whole rows and the factorial polynomials read the stored rows, not
    # one unsigned or signed lookup per entry.
    calls = []

    def counted(name):
        original = getattr(StirlingTable, name)

        def wrapper(self, n, m):
            calls.append(name)
            return original(self, n, m)

        return wrapper

    for name in ("unsigned", "signed"):
        monkeypatch.setattr(StirlingTable, name, counted(name))
    assert StirlingTable().row(60, signed=True)[1] == -math.factorial(59)
    assert rising_factorial_poly(30).evaluate({"X": 1}) == math.factorial(31)
    assert falling_factorial_poly(30).evaluate({"X": 30}) == math.factorial(30)
    assert calls == []


def test_row_validation():
    with pytest.raises(ValueError):
        StirlingTable().row(-1)


def test_rising_factorial_small():
    assert rising_factorial_poly(1) == X + 1
    assert rising_factorial_poly(3) == X**3 + 6 * X**2 + 11 * X + 6
    assert rising_factorial_poly(4) == X**4 + 10 * X**3 + 35 * X**2 + 50 * X + 24
    with pytest.raises(ValueError):
        rising_factorial_poly(0)
    with pytest.raises(ValueError):
        rising_factorial_poly(True)


def test_rising_factorial_matches_direct_product():
    for n in range(1, 16):
        product = Polynomial.constant(1)
        for j in range(1, n + 1):
            product = product * (X + j)
        assert rising_factorial_poly(n) == product


def test_falling_factorial_matches_direct_product():
    for n in range(1, 16):
        product = Polynomial.constant(1)
        for j in range(n):
            product = product * (X - j)
        assert falling_factorial_poly(n) == product
    with pytest.raises(ValueError):
        falling_factorial_poly(0)
    with pytest.raises(ValueError):
        falling_factorial_poly(True)


def test_large_entries_stay_exact():
    # the (N, 2) column is (N-1)! times a harmonic number, an identity
    # independent of the recurrence; by row 22 it is past 64-bit range
    for n in (21, 22):
        harmonic = sum(Fraction(1, k) for k in range(1, n))
        expected = math.factorial(n - 1) * harmonic
        assert expected.denominator == 1
        assert unsigned_stirling1(n, 2) == expected.numerator
    assert unsigned_stirling1(22, 2) > 2**64


def test_single_entries_hold_one_row_at_a_time():
    # Row 600 is about 0.3 MB; the triangle up to it would be about 50 MB.
    tracemalloc.start()
    try:
        assert unsigned_stirling1(600, 1) == math.factorial(599)
        assert signed_stirling1(600, 1) == -math.factorial(599)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_h0_line_bundle():
    assert h0_line_bundle(3, 2) == 10
    for dim in range(1, 8):
        assert h0_line_bundle(dim, 0) == 1
    assert h0_line_bundle(2, -1) == 0
    assert h0_line_bundle(2, -3) == 1
    for dim in range(1, 11):
        for a in range(31):
            assert h0_line_bundle(dim, a) == math.comb(a + dim, dim)
    with pytest.raises(ValueError):
        h0_line_bundle(0, 3)


def test_rising_factorial_evaluates_to_section_counts():
    for dim in range(1, 7):
        poly = rising_factorial_poly(dim)
        for a in range(-dim - 6, 6):
            value = poly.evaluate({"X": a})
            assert value == math.factorial(dim) * h0_line_bundle(dim, a)


@pytest.mark.parametrize("dim", range(1, 13))
def test_line_bundle_counts_are_the_rising_factorial_product(dim):
    # h0_line_bundle counts with math.comb and the reflection rule; the
    # product (d+1)...(d+dim)/dim! is the binomial read as a polynomial in d.
    for d in range(-40, 41):
        product = Fraction(1)
        for j in range(1, dim + 1):
            product *= Fraction(d + j, j)
        assert h0_line_bundle(dim, d) == product, d


def test_line_bundle_count_is_the_exact_rising_factorial():
    # The one copy of the reflection rule, through each of its callers:
    # (d+1)...(d+N) is divisible by N!, and the quotient is the count, on
    # both sides of the zero band -N <= d <= -1.
    for dim in range(1, 31):
        fact = math.factorial(dim)
        line = SplitBundle(dim, (0,))
        for d in range(-3 * dim, 3 * dim + 1):
            product = math.prod(range(d + 1, d + dim + 1))
            assert product % fact == 0, (dim, d)
            count = product // fact
            assert h0_line_bundle(dim, d) == count, (dim, d)
            assert _line_bundle_count(dim, d) == count, (dim, d)
            assert split_chi_twist(line, d) == count, (dim, d)


def test_concurrent_fill_is_consistent():
    table = StirlingTable()
    results = []
    errors = []

    def worker(target):
        try:
            results.append(tuple(table.row(target)))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(40,)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(results)) == 1
    assert results[0] == tuple(StirlingTable().row(40))
