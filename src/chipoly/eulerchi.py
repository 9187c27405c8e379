"""Euler characteristics of sheaves on projective space, symbolically.

For a coherent sheaf F of rank n on projective N-space with Chern classes
c_1..c_N, the Euler characteristic is a universal polynomial evaluated at
those classes:

    chi(F) = (1/N!) * sum_{k=0}^{N} [N+1, k+1] * B_k(C_1..C_k),    B_0 = n,

where [.,.] are unsigned Stirling numbers of the first kind and B_k is
the k-th power sum written in the elementary-symmetric variables C_i
(which stand in for the Chern classes).  Twisting by O(t) shifts every
Chern root by t, so B_k becomes sum_j binom(k, j) T^(k-j) B_j and chi(F(t))
is the same sum over the same B_j with weights q_j in T: as
sum_k [N+1, k+1] x^k = (x + 1)...(x + N), q_j is the coefficient of x^j in
(x + 1 + T)...(x + N + T), that is e_(N-j)(1 + T, ..., N + T), the
elementary symmetric function that gives a split bundle's Chern classes.

Which route does what:
- chi_polynomial (its default method, "recursive") and
  chi_twist_polynomial build chi and G from the closed form: Waring's
  formula gives each coefficient of B_w, so every coefficient of chi and
  G is one product of integers, written in canonical order as a
  partition walk meets it (see _closed_form).  No power sum is built
  and nothing is sorted.
- build_chi_polynomial assembles chi from a named power-sum route: the
  Newton recursion or the paper's Newton matrix.  The bench command
  times the two against each other, emit-chi --method matrix prints the
  matrix route, and the tests check the closed form against the
  recursion term for term.
- twisted_chern_polynomial is the paper's substitution
  C_i -> sum_j binom(n-i+j, j) T^j C_{i-j}, C_0 = 1, the independent
  check on G.
- evaluate_chi takes the sum at a concrete Chern vector, where B_j is the
  power sum p_j of the Chern roots, which Newton's identities give from
  the classes in plain integers; a ChernVector computes them once, when
  it is built, so no polynomial is built.  _chi_numerator is that sum
  before the division by N!, an integer, which verify compares.
Everything here is exact over Q; the rank may be a specific integer or
left symbolic as the variable n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._record import FrozenRecord
from .algebra import RANK, TWIST, Polynomial, _check_int, _slot, chern
from .symmfun import PowerSumCache, elementary_values, power_sum_matrix, power_sum_recursive

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
    cache = cache or PowerSumCache()
    return [power_sum_recursive(k, cache) for k in range(1, dim + 1)]


@lru_cache(maxsize=WEIGHTS_CACHE_SIZE)
def _weights(dim: int, twist) -> tuple:
    """q_0..q_N, q_j = sum_{k>=j} [N+1, k+1] binom(k, j) twist^(k-j), memoised.

    q_j weighs B_j in N! * chi(F(twist)): B_k of the roots shifted by twist
    is sum_j binom(k, j) twist^(k-j) B_j.  So the q_j are the coefficients
    of R(x + twist), where R(x) = sum_k [N+1, k+1] x^k = (x + 1)...(x + N)
    defines the Stirling numbers: q_j = e_(N-j)(1 + twist, ..., N + twist),
    from elementary_values, which also gives a split bundle's Chern classes.
    No Stirling row is built.  twist is an integer.
    """
    return (*reversed(elementary_values(range(1 + twist, dim + 1 + twist), dim)), 1)


def _closed_form(rank, dim: int, twisted: bool) -> Polynomial:
    """chi (or G when twisted) from Waring's coefficients, in canonical order.

    Waring's formula (Macdonald, Symmetric Functions and Hall Polynomials,
    I.2) gives B_w in the C variables: a partition lambda of w with l
    parts, m_i of them equal to i, has the coefficient
    (-1)^(w-l) w (l-1)! / prod m_i! on C^lambda.  So C^lambda has
    [N+1, w+1] times that in N! * chi, and C^lambda T^e has
    [N+1, w+e+1] binom(w+e, w) times it in N! * G; the rank term is
    rank [N+1, e+1] T^e.  The weights are _weights(N, 0).

    One walk visits the monomials in canonical order, so the result needs
    no sort: total degree (l, plus e in G) descending, then the smallest
    part ascending, its multiplicity descending, and so on.  In G, T^e is
    a last part of size 1 whose slot sorts after every C; the rank term
    comes last in its degree, since its first slot is T or n (or it is
    the constant).

    A walk call with one part left writes only leaves: C^lambda C_p for
    p = low..N-used, in that order (in G, before its T-leaf).  The new
    part p occurs once and exceeds every earlier part, so lambda has
    l = parts + 1 and its m_i! are the earlier ones, whose product is
    denom.  The coefficient is then (-1)^(parts+1) (parts!/denom) sw[w]
    with sw[w] = (-1)^w w [N+1, w+1].  parts!/denom is a multinomial
    coefficient, an integer fixed for the whole call, so the run costs
    one multiply per leaf.  These leaves, the partitions whose largest
    part occurs once, are most of chi: 5,763 of its 7,337 non-rank terms
    at dim 24.
    """
    (rank_mono, rank_coeff), = _rank_poly(rank)._terms.items()
    _check_int(dim, "dimension", 1)
    stirling = _weights(dim, 0)
    fact = [1]
    for i in range(1, dim + 1):
        fact.append(fact[-1] * i)
    t = _slot(TWIST)
    # Every (slot, exponent) pair a monomial can hold, made once and shared.
    pairs = {p: [(p, m) for m in range(dim // p + 1)] for p in range(1, dim + 1)}
    pairs[t] = [(t, e) for e in range(dim + 1)]
    # sw[w] = (-1)^w w [N+1, w+1], and ones[p - 1] the pair of one part p.
    sw = [-w * s if w % 2 else w * s for w, s in enumerate(stirling)]
    ones = [pairs[p][1] for p in range(1, dim + 1)]
    nums: dict = {}

    def walk(prefix, left, used, low, parts, denom):
        # prefix: the parts placed so far (smallest first) as a monomial,
        # of weight used and degree parts; left: the degree still to place,
        # by parts of size low or more (or, in G, by T, of size 1).
        if left == 1:  # leaves only: one part p of each size low..N-used
            k = fact[parts] // denom if parts % 2 else -(fact[parts] // denom)
            for pair, s in zip(ones[low - 1 : dim - used], sw[used + low :]):
                nums[prefix + (pair,)] = k * s
        else:
            p = low
            while True:
                if twisted:  # the rest of the degree as T costs 1 a unit
                    if used + left + p - 1 > dim:
                        break
                    top = left if p == 1 else min(left, (dim - used - left) // (p - 1))
                    counts = range(top, 0, -1)
                else:  # the rest of the degree costs at least p + 1 a unit
                    if used + p * left > dim:
                        break
                    counts = range(left, max(0, used + (p + 1) * left - dim - 1), -1)
                for m in counts:  # m parts of size p, most first
                    mono = prefix + (pairs[p][m],)
                    if m == left:  # a leaf: the coefficient of C^lambda
                        w = used + p * m
                        c = w * fact[parts + m - 1] // (denom * fact[m]) * stirling[w]
                        nums[mono] = -c if (w - parts - m) % 2 else c
                    else:
                        walk(mono, left - m, used + p * m, p + 1, parts + m, denom * fact[m])
                p += 1
        if twisted and parts:  # the leaf C^lambda T^left, T after every C
            c = used * fact[parts - 1] // denom * stirling[used + left]
            c *= math.comb(used + left, used)
            nums[prefix + (pairs[t][left],)] = -c if (used - parts) % 2 else c

    # The rank term times T^e has degree e + 1 for the symbolic rank n,
    # else e.
    top_e = dim if twisted else 0
    for degree in range(max(dim, top_e + len(rank_mono)), -1, -1):
        if 1 <= degree <= dim:
            walk((), degree, 0, 1, 0, 1)
        e = degree - len(rank_mono)
        if 0 <= e <= top_e:
            mono = ((pairs[t][e],) if e else ()) + rank_mono
            nums[mono] = rank_coeff * stirling[e]
    return Polynomial._make(nums, fact[dim], True)


def build_chi_polynomial(
    rank,
    dim: int,
    method: str = "recursive",
    cache: PowerSumCache | None = None,
) -> Polynomial:
    """chi assembled from the power sums of one route, outside any cache.

    method is "recursive" (the Newton recursion) or "matrix" (the Newton
    matrix); chi_polynomial's default builds the same polynomial from
    the closed form instead.  chi is (1/N!) * sum_k [N+1, k+1] * B_k over
    the rank B_0 and the route's B_1..B_N, with the weights of _weights,
    every product landing in one integer dict over N!.  With cache=None
    the recursive route builds B_1..B_N in one fresh PowerSumCache that
    the call drops on return, so each call pays the full cost of its
    method; pass a PowerSumCache to share the power sums between calls.
    """
    sums = [_rank_poly(rank)] + _power_sums(dim, method, cache)
    return Polynomial.sum_of_products(zip(_weights(dim, 0), sums), math.factorial(dim))


# typed: True and 3.0 hash like 1 and 3, and must reach the checks.
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def chi_polynomial(rank, dim: int, method: str = "recursive") -> Polynomial:
    """The universal polynomial P with chi(F) = P(c_1, ..., c_N).

    rank is an integer or None for the symbolic rank variable n; dim is
    the N of projective N-space.  The default method, "recursive", builds
    chi from Waring's closed form (_closed_form), already in canonical
    order; "matrix" assembles it from the Newton matrix's power sums.
    Results are cached per call, up to CACHE_SIZE of them; a call spelled
    another way (method named, or passed by keyword) is another entry.
    """
    if method == "recursive":
        return _closed_form(rank, dim, False)
    return build_chi_polynomial(rank, dim, method)


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
def chi_twist_polynomial(rank, dim: int) -> Polynomial:
    """The polynomial G with chi(F(t)) = G(c_1, ..., c_N, t).

    Built from Waring's closed form (_closed_form), already in canonical
    order; twisted_chern_polynomial is its independent check.  Cached per
    call, as chi_polynomial is, up to CACHE_SIZE of them.
    """
    return _closed_form(rank, dim, True)


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
        p.append(k * signed[k - 1] + sum(map(mul, signed, p[k - 1 : 0 : -1])))
    return tuple(p)


class ChernVector(FrozenRecord):
    """Chern classes of a rank `rank` sheaf on projective `dim`-space.

    A frozen record of (dim, rank, classes): it compares, hashes and prints
    as those three fields, in that order, and refuses assignment.  Once the
    fields are checked, the vector keeps the power sums p_0..p_N of its
    Chern roots as the private attribute _power_sums, which evaluate_chi
    reads; it is not a field, and a copy or an unpickled vector computes
    its own from its classes.
    """

    __slots__ = ("dim", "rank", "classes", "_power_sums")
    __match_args__ = ("dim", "rank", "classes")

    def __init__(self, dim: int, rank: int, classes: tuple):
        _check_int(dim, "dimension", 1)
        _check_int(rank, "rank", 1)
        classes = tuple(classes)
        if len(classes) != dim:
            raise ValueError(f"need exactly {dim} Chern classes, got {len(classes)}")
        for c in classes:
            _check_int(c, "Chern classes")
        set_field = object.__setattr__
        set_field(self, "dim", dim)
        set_field(self, "rank", rank)
        set_field(self, "classes", classes)
        set_field(self, "_power_sums", _newton_power_sums(rank, classes))


def _chi_numerator(cv: ChernVector, twist: int | None = None) -> int:
    """N! * chi(F) (or N! * chi(F(twist))) at cv: an integer, sum_j q_j(t) p_j.

    The weights of _weights times the power sums p_j of the Chern roots,
    which cv computed once when it was built, with t = 0 when there is no
    twist.  The sum is the one chi and G are assembled from, with p_j in
    place of B_j, so no polynomial is built.  verify compares it with N!
    times a direct count, in integers.  twist is None or an integer that
    the caller has checked: evaluate_chi checks it, and verify's twists
    are the integers of its window.
    """
    return sum(map(mul, _weights(cv.dim, 0 if twist is None else twist), cv._power_sums))


def evaluate_chi(cv: ChernVector, twist: int | None = None) -> Fraction:
    """Exact chi(F) (or chi(F(twist))) at a concrete Chern vector.

    Returns (1/N!) * sum_j q_j(t) p_j, the integer _chi_numerator over N!,
    once a twist that is not None is checked.
    """
    if twist is not None:
        _check_int(twist, "twist")
    return Fraction(_chi_numerator(cv, twist), math.factorial(cv.dim))


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
    terms, den = poly._ordered(), poly._den
    tail_monos = (((_slot(RANK), 1),), ())  # n, then the constant: canonical order
    tail = {m: terms[m] for m in tail_monos if m in terms}
    # Cancel dim! against den first; for chi den divides dim!, so the
    # bracket's numerators need no reduction after scaling.
    fact = math.factorial(dim)
    g = math.gcd(fact, den)
    scale = fact // g
    if scale == 1:  # dim! divides den (chi and G have den dim!): copy, drop the tail
        bracket = dict(terms)
        for m in tail:
            del bracket[m]
    else:
        bracket = {m: c * scale for m, c in terms.items() if m not in tail_monos}
    return Polynomial._make(bracket, den // g, True), Polynomial._make(tail, den, True)
