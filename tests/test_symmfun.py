import random
import threading

import pytest

from chipoly.algebra import Polynomial, chern
from chipoly.symmfun import (
    PowerSumCache,
    elementary_values,
    newton_matrix,
    power_sum_matrix,
    power_sum_recursive,
    power_sum_values,
)

C1 = Polynomial.variable("C1")
C2 = Polynomial.variable("C2")
C3 = Polynomial.variable("C3")
C4 = Polynomial.variable("C4")


def test_newton_matrix_layout():
    m = newton_matrix(4)
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    for i in range(4):
        assert m[i][0] == (i + 1) * Polynomial.variable(chern(i + 1))
        for j in range(1, 4):
            if j <= i:
                assert m[i][j] == Polynomial.variable(chern(i - j + 1))
            elif j == i + 1:
                assert m[i][j] == Polynomial.constant(1)
            else:
                assert m[i][j].is_zero
    with pytest.raises(ValueError):
        newton_matrix(0)


def test_power_sum_golden():
    assert power_sum_matrix(1) == C1
    assert power_sum_recursive(1) == C1
    assert power_sum_matrix(2) == C1**2 - 2 * C2
    assert power_sum_recursive(2) == C1**2 - 2 * C2
    assert power_sum_recursive(3) == C1**3 - 3 * C1 * C2 + 3 * C3
    assert (
        power_sum_matrix(4)
        == C1**4 - 4 * C1**2 * C2 + 2 * C2**2 + 4 * C1 * C3 - 4 * C4
    )


@pytest.mark.slow
def test_methods_agree():
    for r in range(1, 13):
        assert power_sum_matrix(r) == power_sum_recursive(r), r


def test_validation():
    with pytest.raises(ValueError):
        power_sum_matrix(0)
    with pytest.raises(ValueError):
        power_sum_recursive(-2)
    with pytest.raises(ValueError):
        PowerSumCache().power_sum(0)
    with pytest.raises(ValueError):
        power_sum_recursive(True)
    with pytest.raises(ValueError):
        power_sum_matrix(True)


def test_homogeneity():
    for r in range(1, 13):
        assert power_sum_recursive(r).weighted_degrees() == {r}


def test_extreme_coefficients():
    for r in range(1, 13):
        b = power_sum_recursive(r)
        assert b.coefficient({chern(1): r}) == 1
        assert b.coefficient({chern(r): 1}) == (r if r % 2 else -r)


def test_newton_girard_identity_vanishes():
    # r*C_r*(-1)^r plus the alternating convolution of B_l with C_{r-l}
    # (C_0 = 1) is identically zero.
    for r in range(1, 11):
        expr = (r * Polynomial.variable(chern(r))) * ((-1) ** r)
        for l in range(1, r + 1):
            sign = (-1) ** (r + l)
            c_part = (
                Polynomial.constant(1)
                if l == r
                else Polynomial.variable(chern(r - l))
            )
            expr = expr + sign * power_sum_recursive(l) * c_part
        assert expr.is_zero, r


def test_elementary_values_examples():
    assert elementary_values((1, 2, 3), 3) == [6, 11, 6]
    assert elementary_values((0, 0, 0, 0), 3) == [0, 0, 0]
    assert elementary_values((5,), 3) == [5, 0, 0]
    assert elementary_values((2, 2), 4) == [4, 4, 0, 0]
    assert elementary_values((1, 2, 3, 4), 2) == [10, 35]  # more values than count
    assert elementary_values((-1, 2), 3) == [1, -2, 0]
    assert elementary_values((), 2) == [0, 0]
    assert elementary_values((5,), 0) == []
    with pytest.raises(ValueError):
        elementary_values((1,), -1)


def test_power_sum_values_examples():
    assert power_sum_values((1, 2, 3), 2) == 14
    assert power_sum_values((1, 2, 3), 0) == 3
    assert power_sum_values((2, -2), 3) == 0
    with pytest.raises(ValueError):
        power_sum_values((1,), -1)


def test_numeric_faithfulness():
    # B_r evaluated at the elementary symmetric values of a tuple must
    # give the tuple's power sum, including the zero-padding convention
    # for r beyond the tuple length.
    rng = random.Random(20040917)
    for _ in range(40):
        n = rng.randint(1, 8)
        a = [rng.randint(-5, 9) for _ in range(n)]
        top = n + 3
        e = elementary_values(a, top)
        for r in range(1, top + 1):
            b = power_sum_recursive(r)
            point = {chern(k): e[k - 1] for k in range(1, r + 1)}
            assert b.evaluate(point) == power_sum_values(a, r), (a, r)


def test_cache_is_isolated_and_idempotent():
    cache = PowerSumCache()
    first = cache.power_sum(6)
    second = cache.power_sum(6)
    assert first == second
    assert first == power_sum_recursive(6, PowerSumCache())


def test_concurrent_cache_fill():
    cache = PowerSumCache()
    results = []

    def worker():
        results.append(cache.power_sum(15))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0] == power_sum_recursive(15, PowerSumCache())
