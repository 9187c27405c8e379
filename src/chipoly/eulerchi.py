"""Euler characteristics of sheaves on projective space, symbolically.

For a coherent sheaf F of rank n on projective N-space with Chern classes
c_1..c_N, the Euler characteristic is a universal polynomial evaluated at
those classes:

    chi(F) = (1/N!) * sum_{k=0}^{N} [N+1, k+1] * B_k(C_1..C_k),    B_0 = n,

where [.,.] are unsigned Stirling numbers of the first kind and B_k is
the k-th power sum written in the elementary-symmetric variables C_i
(which stand in for the Chern classes).  Twisting by O(t) shifts every
Chern root by t, so B_k becomes sum_j binom(k, j) T^(k-j) B_j and chi(F(t))
is the same sum over the same B_j with weights q_j in T: the coefficients
of (x + 1 + T)(x + 2 + T)...(x + N + T), since
sum_k [N+1, k+1] x^k = (x + 1)(x + 2)...(x + N) (see _weights).
At a concrete Chern vector B_j is the power sum p_j of the Chern roots,
which Newton's identities give from the classes in plain integers; a
ChernVector computes them once, when it is built, so evaluate_chi takes
the sum at an integer twist without building any polynomial.  The
paper's substitution C_i -> sum_j binom(n-i+j, j) T^j C_{i-j}, C_0 = 1,
is kept as twisted_chern_polynomial, the independent check on that shift.
Everything here is exact over Q; the rank may be a specific integer or
left symbolic as the variable n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import RANK, TWIST, Polynomial, _check_int, _slot, chern
from .symmfun import PowerSumCache, power_sum_matrix, power_sum_recursive

METHODS = ("matrix", "recursive")
# Entries kept by each of the chi and G caches below; cached polynomials
# grow with the partition counts, so the caches are bounded.
CACHE_SIZE = 64
# Entries kept of _weights, N+1 integers each: every twist of verify's
# window at one dim up to --twist-range 511, so a trial pays no new weights.
WEIGHTS_CACHE_SIZE = 1024


def _rank_poly(rank) -> Polynomial:
    """B_0: the variable n for rank None, else the rank once it is checked."""
    if rank is None:
        return Polynomial.variable(RANK)
    return Polynomial.constant(_check_int(rank, "rank (or None for symbolic)", 1))


def _power_sums(dim: int, method: str = "recursive", cache=None) -> list:
    """B_1..B_dim by the given method, once dim and method are checked."""
    _check_int(dim, "dimension", 1)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "matrix":
        return [power_sum_matrix(k) for k in range(1, dim + 1)]
    return [power_sum_recursive(k, cache) for k in range(1, dim + 1)]


@lru_cache(maxsize=WEIGHTS_CACHE_SIZE)
def _weights(dim: int, twist) -> tuple:
    """q_0..q_N, q_j = sum_{k>=j} [N+1, k+1] binom(k, j) twist^(k-j), memoised.

    q_j weighs B_j in N! * chi(F(twist)): B_k of the roots shifted by twist
    is sum_j binom(k, j) twist^(k-j) B_j.  So the q_j are the coefficients
    of R(x + twist), where R(x) = sum_k [N+1, k+1] x^k = (x + 1)...(x + N)
    is the rising factorial that defines the Stirling numbers.  The
    product of the N factors x + m + twist gives them in O(N^2) steps,
    with no Stirling row.  twist is an integer, or the variable T for G.
    """
    q = [1]
    for m in range(1, dim + 1):  # q *= x + m + twist, in place from the top
        shift = twist + m
        q.append(q[-1])
        for i in range(m - 1, 0, -1):
            q[i] = q[i - 1] + shift * q[i]
        q[0] = shift * q[0]
    return tuple(q)


def _assemble(b0: Polynomial, dim: int, sums: list, twist) -> Polynomial:
    """(1/N!) * sum_j q_j * B_j over B_0 = b0 and B_1..B_N = sums, with the
    weights q_j of _weights; every q_j * B_j lands in one integer dict over N!.
    """
    return Polynomial.sum_of_products(zip(_weights(dim, twist), [b0] + sums), math.factorial(dim))


def build_chi_polynomial(
    rank,
    dim: int,
    method: str = "recursive",
    cache: PowerSumCache | None = None,
) -> Polynomial:
    """Construction of the chi polynomial, outside chi_polynomial's cache.

    With cache=None the recursive route reads and fills the shared module
    memo of power sums.  The benchmark passes a fresh PowerSumCache so
    that each timed run pays the full cost of its method.
    """
    return _assemble(_rank_poly(rank), dim, _power_sums(dim, method, cache), 0)


# typed: True and 3.0 hash like 1 and 3, and must reach the checks.
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _cached_chi(rank, dim, method):
    return build_chi_polynomial(rank, dim, method)


def chi_polynomial(rank, dim: int, method: str = "recursive") -> Polynomial:
    """The universal polynomial P with chi(F) = P(c_1, ..., c_N).

    rank is an integer or None for the symbolic rank variable n; dim is
    the N of projective N-space.  Results are cached per (rank, dim,
    method), however the call spells them, up to CACHE_SIZE of them.
    """
    return _cached_chi(rank, dim, method)


chi_polynomial.cache_info = _cached_chi.cache_info
chi_polynomial.cache_clear = _cached_chi.cache_clear


def _binomial_poly(top: Polynomial, j: int) -> Polynomial:
    """Generalized binomial coefficient binom(top, j) for polynomial top."""
    out = Polynomial.constant(1)
    for l in range(j):
        out = out * (top - l)
    return out / math.factorial(j)


def twisted_chern_polynomial(index: int, rank) -> Polynomial:
    """C_index of the twist F(t) in terms of the untwisted classes and T.

    The paper's substitution rule, kept as the check on chi_twist_polynomial.
    """
    _check_int(index, "Chern index", 1)
    top_base = _rank_poly(rank)
    total = Polynomial.zero()
    for j in range(index + 1):
        binom = _binomial_poly(top_base - (index - j), j)
        term = binom * Polynomial.variable(TWIST) ** j
        if index - j > 0:
            term = term * Polynomial.variable(chern(index - j))
        total = total + term
    return total


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _cached_chi_twist(rank, dim):
    return _assemble(_rank_poly(rank), dim, _power_sums(dim), Polynomial.variable(TWIST))


def chi_twist_polynomial(rank, dim: int) -> Polynomial:
    """The polynomial G with chi(F(t)) = G(c_1, ..., c_N, t).

    Cached per (rank, dim), however the call spells them, up to
    CACHE_SIZE of them.
    """
    return _cached_chi_twist(rank, dim)


chi_twist_polynomial.cache_info = _cached_chi_twist.cache_info
chi_twist_polynomial.cache_clear = _cached_chi_twist.cache_clear


def _newton_power_sums(rank: int, classes: tuple) -> tuple:
    """(rank, p_1..p_N): the power sums p_0..p_N of the Chern roots.

    Newton's identities in plain integers, O(N^2) steps (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2):
    p_k = sum_{l<k} (-1)^(l-1) c_l p_(k-l) + (-1)^(k-1) k c_k.  The symbolic
    B_k come from the same recurrence, and a test checks each p_k against
    B_k evaluated at the classes.
    """
    signed = [c if l % 2 else -c for l, c in enumerate(classes, 1)]
    p = [rank]
    for k in range(1, len(classes) + 1):
        p.append(k * signed[k - 1] + sum(s * q for s, q in zip(signed, p[k - 1 : 0 : -1])))
    return tuple(p)


@dataclass(frozen=True)
class ChernVector:
    """Chern classes of a rank `rank` sheaf on projective `dim`-space.

    Once the fields are checked, the vector keeps the power sums p_0..p_N
    of its Chern roots as the private attribute _power_sums, which
    evaluate_chi reads; it is not a field, so equality, hashing and repr
    see only dim, rank and classes.
    """

    dim: int
    rank: int
    classes: tuple

    def __post_init__(self):
        _check_int(self.dim, "dimension", 1)
        _check_int(self.rank, "rank", 1)
        classes = tuple(self.classes)
        if len(classes) != self.dim:
            raise ValueError(
                f"need exactly {self.dim} Chern classes, got {len(classes)}"
            )
        for c in classes:
            _check_int(c, "Chern classes")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_power_sums", _newton_power_sums(self.rank, classes))


def evaluate_chi(cv: ChernVector, twist: int | None = None) -> Fraction:
    """Exact chi(F) (or chi(F(twist))) at a concrete Chern vector.

    Returns (1/N!) * sum_j q_j(t) p_j with t = 0 when there is no twist:
    the weights of _weights times the power sums p_j of the Chern roots,
    which cv computed once when it was built.  The sum is the one chi and
    G are assembled from, with p_j in place of B_j, so no polynomial is
    built.
    """
    t = 0 if twist is None else _check_int(twist, "twist")
    sums = cv._power_sums
    return Fraction(sum(q * p for q, p in zip(_weights(cv.dim, t), sums)), math.factorial(cv.dim))


def prefactor_parts(poly: Polynomial, dim: int) -> tuple[Polynomial, Polynomial]:
    """Split a chi polynomial into (dim!-scaled bracket, rank tail).

    Returns (bracket, tail) with poly == bracket / dim! + tail, where the
    tail collects the constant and pure-rank terms.  This is the shape in
    which the polynomials are usually displayed.  Both parts are read off
    poly's numerators and keep its canonical order, the bracket in one
    pass over that order: dropping terms and scaling them by dim! move
    none of the rest.
    """
    _check_int(dim, "dimension", 1)
    terms, den = poly._terms, poly._den
    tail_monos = (((_slot(RANK), 1),), ())  # n, then the constant: canonical order
    tail = {m: terms[m] for m in tail_monos if m in terms}
    # Cancel dim! against den first; for chi den divides dim!, so the
    # bracket's numerators need no reduction after scaling.
    fact = math.factorial(dim)
    g = math.gcd(fact, den)
    scale = fact // g
    bracket = {m: terms[m] * scale for m in poly._ordered() if m not in tail_monos}
    return (Polynomial._make(bracket, den // g, list(bracket)),
            Polynomial._make(tail, den, list(tail)))
