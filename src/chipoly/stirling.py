"""Stirling numbers of the first kind and factorial polynomials.

The unsigned number [N, m] counts permutations of N elements with exactly
m cycles.  The whole module works from the triangle recurrence

    [N, m] = [N-1, m-1] + (N-1) * [N-1, m]

with [0, 0] = 1 and zero outside 0 <= m <= N.  The signed variant is
s(N, m) = (-1)^(N-m) [N, m], the coefficients of the falling factorial.
"""

from __future__ import annotations

import math
import threading

from .algebra import AUX, Polynomial, _check_int


class StirlingTable:
    """Memoized triangle of unsigned Stirling numbers of the first kind.

    Rows are built on demand and kept forever; filling is guarded by a
    lock so concurrent lookups stay consistent.  The table serves the
    stirling command and, through unsigned_stirling1, is the reference
    that eulerchi._weights (which builds no row) is tested against.
    """

    def __init__(self):
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    def ensure_rows(self, n: int) -> None:
        """Make sure rows 0..n are filled."""
        if _check_int(n, "row index", 0) < len(self._rows):
            return
        with self._lock:
            while len(self._rows) <= n:
                prev = self._rows[-1]
                size = len(self._rows)
                row = [0] * (size + 1)
                for m in range(size + 1):
                    term = prev[m - 1] if m >= 1 else 0
                    if m < size:
                        term += (size - 1) * prev[m]
                    row[m] = term
                self._rows.append(tuple(row))

    def unsigned(self, n: int, m: int) -> int:
        _check_int(n, "n")
        _check_int(m, "m")
        if n < 0 or m < 0 or m > n:
            return 0
        self.ensure_rows(n)
        return self._rows[n][m]

    def signed(self, n: int, m: int) -> int:
        value = self.unsigned(n, m)
        return -value if (n - m) % 2 else value

    def row(self, n: int, signed: bool = False) -> tuple[int, ...]:
        self.ensure_rows(n)
        if not signed:
            return self._rows[n]
        return tuple(self.signed(n, m) for m in range(n + 1))


_TABLE = StirlingTable()


def unsigned_stirling1(n: int, m: int) -> int:
    """Unsigned Stirling number [n, m]; the reference eulerchi._weights is tested against."""
    return _TABLE.unsigned(n, m)


def signed_stirling1(n: int, m: int) -> int:
    """Signed Stirling number s(n, m) = (-1)^(n-m) [n, m]."""
    return _TABLE.signed(n, m)


def rising_factorial_poly(n: int) -> Polynomial:
    """(X+1)(X+2)...(X+n) expanded in X.

    The coefficient of X^k is [n+1, k+1], which is how the whole triangle
    enters the Euler-characteristic formula.
    """
    _check_int(n, "rising factorial length", 1)
    return Polynomial.from_terms(
        [({AUX: k}, _TABLE.unsigned(n + 1, k + 1)) for k in range(n + 1)]
    )


def falling_factorial_poly(n: int) -> Polynomial:
    """X(X-1)...(X-n+1) expanded in X; coefficients are the signed numbers."""
    _check_int(n, "falling factorial length", 1)
    return Polynomial.from_terms(
        [({AUX: k}, _TABLE.signed(n, k)) for k in range(n + 1)]
    )


def _line_bundle_count(dim: int, degree: int) -> int:
    """chi(O(degree)) on projective dim-space, for a dim and degree already checked.

    The binomial binom(degree + dim, dim) read as a polynomial in degree,
    the rising factorial (degree+1)...(degree+dim) over dim!, counted by
    math.comb: binom(degree + dim, dim) for degree >= 0 (h^0, the usual
    count of monomials), 0 for -dim <= degree <= -1 (a factor of the
    product is 0), and (-1)^dim * binom(-degree - 1, dim) for
    degree < -dim (every factor negative, so the product reflects).  The
    split-bundle oracle sums it over a bundle's summands.
    """
    if degree >= 0:
        return math.comb(degree + dim, dim)
    count = math.comb(-degree - 1, dim)  # 0 for -dim <= degree <= -1
    return -count if dim % 2 else count


def h0_line_bundle(dim: int, degree: int) -> int:
    """chi(O(degree)) on projective dim-space, exact for any integer degree.

    _line_bundle_count once dim (at least 1) and degree are checked.
    """
    return _line_bundle_count(_check_int(dim, "dimension", 1), _check_int(degree, "degree"))
