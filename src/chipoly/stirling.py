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

    Rows are built on demand and kept as long as the table, which its
    caller owns, under a lock so concurrent fills stay consistent.  Whole
    rows serve the stirling command and the factorial polynomials; through
    unsigned_stirling1 the table is the reference that eulerchi._weights
    (which builds no row) is tested against.
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
                k = len(prev) - 1  # prev is row k: [k+1, m] = [k, m-1] + k * [k, m]
                self._rows.append(tuple(a + k * b for a, b in zip((0,) + prev, prev + (0,))))

    def unsigned(self, n: int, m: int) -> int:
        _check_int(n, "n")
        _check_int(m, "m")
        if n < 0 or m < 0 or m > n:
            return 0
        return self.row(n)[m]

    def signed(self, n: int, m: int) -> int:
        value = self.unsigned(n, m)
        return -value if (n - m) % 2 else value

    def row(self, n: int, signed: bool = False) -> tuple[int, ...]:
        """The stored row [n, 0]..[n, n]; signed, a copy signed by the parity of n - m."""
        self.ensure_rows(n)
        row = self._rows[n]
        if not signed:
            return row
        return tuple(-v if (n - m) % 2 else v for m, v in enumerate(row))


def unsigned_stirling1(n: int, m: int) -> int:
    """Unsigned Stirling number [n, m]; the reference eulerchi._weights is tested against.

    Each call builds rows 0..n in a fresh table; to read many entries of
    one row, read StirlingTable().row(n) once.
    """
    return StirlingTable().unsigned(n, m)


def signed_stirling1(n: int, m: int) -> int:
    """Signed Stirling number s(n, m) = (-1)^(n-m) [n, m].

    Each call builds rows 0..n in a fresh table; to read many entries of
    one row, read StirlingTable().row(n, signed=True) once.
    """
    return StirlingTable().signed(n, m)


def rising_factorial_poly(n: int) -> Polynomial:
    """(X+1)(X+2)...(X+n) expanded in X.

    The coefficient of X^k is [n+1, k+1], which is how the whole triangle
    enters the Euler-characteristic formula.
    """
    _check_int(n, "rising factorial length", 1)
    row = StirlingTable().row(n + 1)
    return Polynomial.from_terms([({AUX: k}, c) for k, c in enumerate(row[1:])])


def falling_factorial_poly(n: int) -> Polynomial:
    """X(X-1)...(X-n+1) expanded in X; coefficients are the signed numbers."""
    _check_int(n, "falling factorial length", 1)
    row = StirlingTable().row(n, signed=True)
    return Polynomial.from_terms([({AUX: k}, c) for k, c in enumerate(row)])


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
