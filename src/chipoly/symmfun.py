"""Power sums in the elementary-symmetric basis, computed two ways.

Write C1, C2, ... for the elementary symmetric functions of some set of
variables and B_r for the r-th power sum.  Newton's identities pack into
a lower-Hessenberg matrix M_r with

    M_r[i][0]   = (i+1) * C_{i+1}
    M_r[i][j]   = C_{i-j+1}        for 1 <= j <= i
    M_r[i][i+1] = 1
    M_r[i][j]   = 0                for j > i+1

(indices 0-based, size r x r), and B_r = det M_r.  The determinant route
here expands along the first column with no sharing of repeated minors,
which is exactly the classical-elimination cost profile; the recursive
route uses the same identities as a memoized recurrence

    B_r = sum_{l=1}^{r-1} (-1)^(l-1) C_l B_{r-l} + (-1)^(r-1) r C_r

and is dramatically faster.  Both must agree term for term.

Neither route builds the chi or G that emit-chi and emit-chi-twist
print: eulerchi writes those from Waring's closed form for the
coefficients of B_r.  The routes here serve the powersum command, the
bench command (which times one against the other), emit-chi --method
matrix, and the tests, where the recursion is the reference the closed
form is checked against, term for term.
"""

from __future__ import annotations

import threading

from .algebra import Polynomial, _check_int, _mono_mul, chern


def newton_matrix(r: int) -> list[list[Polynomial]]:
    """The r x r Newton-identity matrix M_r described in the module docstring."""
    _check_int(r, "power-sum index", 1)
    zero = Polynomial.zero()
    one = Polynomial.constant(1)
    matrix = []
    for i in range(r):
        row = []
        for j in range(r):
            if j == 0:
                row.append((i + 1) * Polynomial.variable(chern(i + 1)))
            elif j <= i:
                row.append(Polynomial.variable(chern(i - j + 1)))
            elif j == i + 1:
                row.append(one)
            else:
                row.append(zero)
        matrix.append(row)
    return matrix


def _det_first_column(raw: list, rows: tuple, col: int) -> dict:
    """Cofactor expansion along the first column, skipping zero entries.

    Deliberately naive: minors shared between branches are recomputed
    every time, which is what makes this route exponentially slower than
    the recurrence.  `rows` holds the surviving row indices and `col` the
    current leftmost column, so no submatrices are materialized, and the
    2x2 base case is written out; the arithmetic is still the textbook
    expansion.  Matrix entries arrive as (monomial, integer coefficient)
    pairs in the polynomial's own slot layout (or None for zero, exploiting
    that every Newton-matrix entry is a single term); the result is a raw
    {monomial: coefficient} dict.
    """
    if len(rows) == 2:
        top, bottom = raw[rows[0]], raw[rows[1]]
        acc2: dict = {}
        a, d = top[col], bottom[col + 1]
        if a is not None and d is not None:
            acc2[_mono_mul(a[0], d[0])] = a[1] * d[1]
        b, c = top[col + 1], bottom[col]
        if b is not None and c is not None:
            mono = _mono_mul(b[0], c[0])
            prev = acc2.get(mono)
            acc2[mono] = -b[1] * c[1] if prev is None else prev - b[1] * c[1]
        return acc2
    acc: dict = {}
    for pos, ri in enumerate(rows):
        entry = raw[ri][col]
        if entry is None:
            continue
        sub = _det_first_column(raw, rows[:pos] + rows[pos + 1 :], col + 1)
        m1, c1 = entry
        if pos % 2:
            c1 = -c1
        for m2, c2 in sub.items():
            if not c2:
                continue
            mono = _mono_mul(m1, m2)
            prev = acc.get(mono)
            acc[mono] = c1 * c2 if prev is None else prev + c1 * c2
    return acc


def power_sum_matrix(r: int) -> Polynomial:
    """B_r as the determinant of the Newton matrix."""
    # Every entry has at most one term and an integer coefficient, so it
    # packs as its one (monomial, numerator) pair, or None for zero.
    raw = [[next(iter(entry._terms.items()), None) for entry in row] for row in newton_matrix(r)]
    if r == 1:
        return Polynomial._make(dict([raw[0][0]]))
    return Polynomial._make(_det_first_column(raw, tuple(range(r)), 0))


class PowerSumCache:
    """Thread-safe memo of the recursive power-sum expansions."""

    def __init__(self):
        self._known: dict[int, Polynomial] = {}
        self._lock = threading.Lock()

    def power_sum(self, r: int) -> Polynomial:
        _check_int(r, "power-sum index", 1)
        with self._lock:
            if r not in self._known:
                # (-1)^(l-1) C_l for l = 1..r; each B_k is then one sum of
                # products, added up in one integer dict.
                signed = [Polynomial.variable(chern(l)) * (-1) ** (l - 1) for l in range(1, r + 1)]
                for k in range(1, r + 1):
                    if k not in self._known:
                        self._known[k] = Polynomial.sum_of_products(
                            [(signed[l - 1], self._known[k - l]) for l in range(1, k)]
                            + [(signed[k - 1], k)]
                        )
            return self._known[r]


_CACHE = PowerSumCache()


def power_sum_recursive(r: int, cache: PowerSumCache | None = None) -> Polynomial:
    """B_r via the memoized Newton recurrence.

    Pass a private cache to measure cold-start cost; the module-level
    default is shared and only ever grows.
    """
    return (cache or _CACHE).power_sum(r)


def elementary_values(values, count: int) -> list[int]:
    """First `count` elementary symmetric functions of the given integers.

    Computed by incrementally multiplying out prod (1 + a*z) and reading
    off the coefficients of z^1..z^count; e_k = 0 for k beyond the number
    of values.
    """
    coeffs = [1] + [0] * _check_int(count, "count", 0)
    for a in values:
        _check_int(a, "values")
        for j in range(count, 0, -1):
            coeffs[j] += a * coeffs[j - 1]
    return coeffs[1:]


def power_sum_values(values, r: int) -> int:
    """The numeric power sum of the given integers, with p_0 = count.

    The reference for the integer Newton p_k that eulerchi computes from
    the classes of a split bundle.
    """
    _check_int(r, "power-sum index", 0)
    values = [_check_int(a, "values") for a in values]
    return sum(a**r for a in values) if r else len(values)
