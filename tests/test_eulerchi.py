import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from chipoly import algebra, cli, eulerchi
from chipoly.algebra import RANK, TWIST, Polynomial, chern
from chipoly.eulerchi import (
    ChernVector,
    build_chi_polynomial,
    chi_polynomial,
    chi_twist_polynomial,
    evaluate_chi,
    prefactor_parts,
    twisted_chern_polynomial,
)
from chipoly.oracle import SplitBundle, split_chi, split_chi_twist, verify
from chipoly.stirling import unsigned_stirling1
from chipoly.symmfun import PowerSumCache, power_sum_recursive, power_sum_values

C1 = Polynomial.variable("C1")
C2 = Polynomial.variable("C2")
T = Polynomial.variable(TWIST)
n = Polynomial.variable(RANK)


def test_chi_line():
    assert chi_polynomial(None, 1) == C1 + n
    assert chi_polynomial(3, 1) == C1 + 3


def test_chi_plane():
    # (1/2)(3*B1 + B2) + n
    expected = (3 * C1 + C1**2 - 2 * C2) / 2 + n
    assert chi_polynomial(None, 2) == expected


def test_chi_dim4_bracket():
    bracket, tail = prefactor_parts(chi_polynomial(None, 4), 4)
    assert tail == n
    assert bracket.to_text() == (
        "C1^4 + 10*C1^3 - 4*C1^2*C2 + 35*C1^2 - 30*C1*C2 + 4*C1*C3"
        " + 2*C2^2 + 50*C1 - 70*C2 + 30*C3 - 4*C4"
    )


def test_chi_dim5_bracket():
    bracket, tail = prefactor_parts(chi_polynomial(None, 5), 5)
    assert tail == n
    assert bracket.coefficient({"C1": 1}) == 274
    assert bracket.coefficient({"C2": 1}) == -450
    assert bracket.coefficient({"C3": 1}) == 255
    assert bracket.coefficient({"C4": 1}) == -60
    assert bracket.coefficient({"C5": 1}) == 5
    assert len(chi_polynomial(None, 5)) == 19


def test_numeric_rank_matches_substitution():
    symbolic = chi_polynomial(None, 3)
    for rank in (1, 2, 5):
        assert chi_polynomial(rank, 3) == symbolic.substitute({RANK: rank})


@pytest.mark.slow
def test_methods_agree_moderate():
    for dim in range(1, 9):
        assert build_chi_polynomial(None, dim, "matrix") == build_chi_polynomial(
            None, dim, "recursive"
        )


def test_weighted_degree_and_constant():
    for dim in (1, 2, 3, 6):
        p = chi_polynomial(4, dim)
        assert max(p.weighted_degrees()) == dim
        assert p.constant_term() == 4


def test_integral_bracket_coefficients():
    for dim in range(1, 21):
        p = build_chi_polynomial(None, dim, "recursive")
        bracket, _ = prefactor_parts(p, dim)
        for _, coeff in bracket.terms():
            assert coeff.denominator == 1, dim


def test_prefactor_parts_reassemble():
    for rank, dim in ((None, 4), (2, 3), (6, 6)):
        p = chi_polynomial(rank, dim)
        bracket, tail = prefactor_parts(p, dim)
        assert bracket / math.factorial(dim) + tail == p


def test_validation():
    with pytest.raises(ValueError):
        chi_polynomial(None, 0)
    with pytest.raises(ValueError):
        chi_polynomial(-1, 3)
    with pytest.raises(ValueError):
        build_chi_polynomial(None, 3, "magic")
    with pytest.raises(ValueError):
        twisted_chern_polynomial(0, None)
    with pytest.raises(ValueError):
        chi_twist_polynomial(None, 0)


def test_twisted_chern_small():
    assert twisted_chern_polynomial(1, None) == C1 + n * T
    assert twisted_chern_polynomial(2, 2) == C2 + T * C1 + T**2
    # general shape at i=2: C2 + (n-1)*T*C1 + binom(n,2)*T^2
    sym = twisted_chern_polynomial(2, None)
    assert sym.substitute({TWIST: 0}) == C2
    assert sym == C2 + (n - 1) * T * C1 + (n * n - n) * T**2 / 2


def test_twisted_chern_zero_twist():
    for i in range(1, 6):
        for rank in (None, 1, 4):
            ci = twisted_chern_polynomial(i, rank)
            assert ci.substitute({TWIST: 0}) == Polynomial.variable(chern(i))
            assert ci.weighted_degrees() == {i}


def test_chi_twist_line():
    assert chi_twist_polynomial(1, 1) == C1 + T + 1


def test_chi_twist_zero_recovers_untwisted():
    for rank, dim in ((None, 3), (2, 2), (6, 6), (None, 6)):
        G = chi_twist_polynomial(rank, dim)
        assert G.substitute({TWIST: 0}) == chi_polynomial(rank, dim)


def test_chi_twist_top_coefficient():
    for dim in range(1, 7):
        G = chi_twist_polynomial(None, dim)
        top = G.collect(TWIST)[dim]
        assert top == n / math.factorial(dim)
        G5 = chi_twist_polynomial(5, dim)
        assert G5.collect(TWIST)[dim] == Polynomial.constant(
            Fraction(5, math.factorial(dim))
        )


def test_twist_values_match_symbolic_substitution():
    cv = ChernVector(3, 4, (2, 5, 1))
    point = {chern(i): c for i, c in enumerate(cv.classes, start=1)}
    for t in range(-4, 5):
        point[TWIST] = t
        twisted = []
        for i in range(1, cv.dim + 1):
            value = twisted_chern_polynomial(i, cv.rank).evaluate(point)
            assert value.denominator == 1
            twisted.append(int(value))
        assert evaluate_chi(cv, t) == evaluate_chi(ChernVector(cv.dim, cv.rank, tuple(twisted)))


@pytest.mark.parametrize("rank", [None, 1, 3])
@pytest.mark.parametrize("dim", range(1, 9))
def test_twist_shift_matches_chern_substitution(rank, dim):
    bindings = {chern(i): twisted_chern_polynomial(i, rank) for i in range(1, dim + 1)}
    assert chi_twist_polynomial(rank, dim) == chi_polynomial(rank, dim).substitute(bindings)


def test_twist_forward_difference_is_rank():
    # chi(F(t)) is degree dim in t with leading coefficient rank/dim!,
    # so its dim-th forward difference is the constant rank.
    cv = ChernVector(4, 5, (1, 3, -2, 7))
    dim, rank = cv.dim, cv.rank
    values = [evaluate_chi(cv, t) for t in range(-2, dim + 3)]
    for _ in range(dim):
        values = [b - a for a, b in zip(values, values[1:])]
    assert all(v == rank for v in values)


def test_evaluate_examples():
    assert evaluate_chi(ChernVector(2, 2, (3, 2))) == 9
    assert evaluate_chi(ChernVector(1, 3, (0,))) == 3
    assert evaluate_chi(ChernVector(2, 1, (-3, 0)), 0) == 1


def test_evaluate_line_bundles():
    # O(a) on projective dim-space: c1 = a, higher classes zero
    from chipoly.stirling import h0_line_bundle

    for dim in range(1, 13):
        for a in range(5):
            cv = ChernVector(dim, 1, tuple([a] + [0] * (dim - 1)))
            assert evaluate_chi(cv) == h0_line_bundle(dim, a)
            for t in range(-3, 4):
                assert evaluate_chi(cv, t) == h0_line_bundle(dim, a + t)


def test_chern_vector_validation():
    with pytest.raises(ValueError):
        ChernVector(3, 2, (1, 2))
    with pytest.raises(ValueError):
        ChernVector(2, 0, (1, 2))
    with pytest.raises(ValueError):
        ChernVector(2, 2, (1, "x"))
    with pytest.raises(ValueError):
        evaluate_chi(ChernVector(2, 2, (1, 2)), twist="q")
    cv = ChernVector(2, 2, [5, 6])
    assert cv.classes == (5, 6)


def test_chern_vector_rejects_bools():
    with pytest.raises(ValueError, match="rank"):
        ChernVector(1, True, (1,))
    with pytest.raises(ValueError, match="Chern classes"):
        ChernVector(1, 1, (True,))
    with pytest.raises(ValueError, match="dimension"):
        ChernVector(True, 1, (1,))
    with pytest.raises(ValueError, match="twist"):
        evaluate_chi(ChernVector(2, 2, (1, 2)), twist=True)
    chi_polynomial(1, 2)  # a cached (1, 2) entry must not answer for rank True
    with pytest.raises(ValueError, match="rank"):
        chi_polynomial(True, 2)
    chi_twist_polynomial(2, 1)
    with pytest.raises(ValueError, match="dimension"):
        chi_twist_polynomial(2, True)


def test_chi_cache_ignores_call_spelling():
    chi_polynomial.cache_clear()
    first = chi_polynomial(3, 6)
    assert chi_polynomial(3, 6, "recursive") is first
    assert chi_polynomial(rank=3, dim=6) is first
    assert chi_polynomial(3, dim=6, method="recursive") is first
    info = chi_polynomial.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    chi_twist_polynomial.cache_clear()
    twisted = chi_twist_polynomial(2, 3)
    assert chi_twist_polynomial(rank=2, dim=3) is twisted
    assert chi_twist_polynomial.cache_info().misses == 1


@pytest.mark.parametrize("dim", range(1, 13))
def test_twisted_evaluation_routes_agree(dim):
    """evaluate_chi, the weighted power sums at the classes, equals chi and G
    evaluated whole: the test that ties both polynomials to the numeric route."""
    rng = random.Random(dim)
    twists = [*range(-10, 11), 10**9, -(10**9)]
    for rank in range(1, 6):
        chi = chi_polynomial(rank, dim)
        G = chi_twist_polynomial(rank, dim)
        vectors = [tuple(rng.randint(-60000, 60000) for _ in range(dim)) for _ in range(2)]
        vectors += [(0,) * dim, (-60000,) * dim]
        for classes in vectors:
            cv = ChernVector(dim, rank, classes)
            point = {chern(i): c for i, c in enumerate(classes, 1)}
            assert evaluate_chi(cv) == chi.evaluate(point)
            for t in twists:
                assert evaluate_chi(cv, t) == G.evaluate({**point, TWIST: t})


@pytest.mark.parametrize("dim", range(1, 21))
def test_newton_power_sums_match_evaluated_b_j(dim):
    """The power sums a Chern vector computes when it is built, which
    evaluate_chi reads, are for every j the symbolic B_j evaluated at the
    classes, and for a split bundle the power sums of its degrees."""
    rng = random.Random(dim)
    for rank in range(1, 6):
        vectors = [tuple(rng.randint(-(10**6), 10**6) for _ in range(dim)) for _ in range(3)]
        vectors += [(-(10**6),) * dim, tuple((-1) ** i * 10**6 for i in range(dim))]
        for classes in vectors:
            p = ChernVector(dim, rank, classes)._power_sums
            point = {chern(i): c for i, c in enumerate(classes, 1)}
            assert p[0] == rank and len(p) == dim + 1
            for j in range(1, dim + 1):
                assert p[j] == power_sum_recursive(j).evaluate(point), (classes, j)
        degrees = tuple(rng.randint(-9, 9) for _ in range(rank - 1)) + (-rng.randint(1, 9),)
        p = SplitBundle(dim, degrees).chern_vector()._power_sums
        assert list(p) == [power_sum_values(degrees, j) for j in range(dim + 1)], degrees


def test_chern_vector_shape_ignores_its_power_sums(monkeypatch):
    """The power sums are no field: equality, hashing, repr and the field
    order are those of (dim, rank, classes), the vector is frozen, and a
    copy's sums match its classes."""
    cv = ChernVector(2, 2, [5, 6])
    assert cv == ChernVector(dim=2, rank=2, classes=(5, 6))
    assert hash(cv) == hash(ChernVector(2, 2, (5, 6))) == hash((2, 2, (5, 6)))
    assert cv != ChernVector(2, 2, (5, 7)) and cv != (2, 2, (5, 6))
    assert repr(cv) == "ChernVector(dim=2, rank=2, classes=(5, 6))"
    assert ChernVector.__match_args__ == ("dim", "rank", "classes")
    assert cv._power_sums == (2, 5, 13)  # p_2 = c_1^2 - 2 c_2
    for name in ("dim", "classes", "_power_sums"):
        with pytest.raises(AttributeError):
            setattr(cv, name, getattr(cv, name))
    replaced = cv.__replace__(classes=(1, -4))  # what copy.replace calls
    assert replaced == ChernVector(2, 2, (1, -4)) and replaced._power_sums == (2, 1, 9)
    newton = []
    monkeypatch.setattr(eulerchi, "_newton_power_sums",
                        lambda *args: newton.append(args) or (2, 1, 9))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(replaced, protocol))
        assert restored == replaced and restored._power_sums == (2, 1, 9)
    assert newton == [(2, (1, -4))] * (pickle.HIGHEST_PROTOCOL + 1)  # each one recomputed
    monkeypatch.undo()
    assert evaluate_chi(restored, 3) == evaluate_chi(ChernVector(2, 2, (1, -4)), 3)


def test_verify_and_eval_run_newton_once_per_chern_vector(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("numeric chi reached the symbolic route")

    runs = []
    newton = eulerchi._newton_power_sums

    def counted(rank, classes):
        runs.append(classes)
        return newton(rank, classes)

    # verify and eval run on integers alone: no power-sum polynomial is
    # built and no polynomial is evaluated.
    monkeypatch.setattr(eulerchi, "_power_sums", unreachable)
    monkeypatch.setattr(Polynomial, "evaluate", unreachable)
    monkeypatch.setattr(eulerchi, "_newton_power_sums", counted)
    trials, twist_range = 7, 6
    chi_polynomial.cache_clear()
    chi_twist_polynomial.cache_clear()
    report = verify(6, 3, trials, 60000, 5, twist_range)
    assert report.ok and report.checks == trials * (2 * twist_range + 2)
    assert len(runs) == trials  # one Chern vector per trial, none per check
    bundle = SplitBundle(200, (4, -3, 7))
    chern_arg = ",".join(map(str, bundle.chern_vector().classes))
    argv = ["eval", "--rank", "3", "--dim", "200", f"--chern={chern_arg}", "--twist", "2"]
    runs.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{split_chi_twist(bundle, 2)}\n"
    assert len(runs) == 1
    # Neither verify nor eval builds chi or G.
    assert chi_polynomial.cache_info().misses == 0
    assert chi_twist_polynomial.cache_info().misses == 0


@pytest.mark.parametrize("rank", [1, 2, 4, 7])
def test_evaluate_chi_is_the_integer_seam_over_n_factorial(rank):
    # evaluate_chi is _chi_numerator over N!, which verify compares alone.
    rng = random.Random(rank)
    for dim in (1, 2, 3, 6, 12, 20):
        for _ in range(4):
            classes = tuple(rng.randint(-10**6, 10**6) for _ in range(dim))
            cv = ChernVector(dim, rank, classes)
            for twist in (None, 0, 1, -1, 5, -5, -dim - 3, 600, -600):
                num = eulerchi._chi_numerator(cv, twist)
                assert type(num) is int
                assert evaluate_chi(cv, twist) == Fraction(num, math.factorial(dim))


def _rising_factorial(dim: int) -> list:
    """Coefficients of x(x+1)...(x+dim): the Stirling numbers [dim+1, k]."""
    coeffs = [1]
    for m in range(dim + 1):
        coeffs = [m * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _interpolate(values: list) -> list:
    """Coefficients of t^0..t^N of the polynomial taking values[t] at t = 0..N."""
    # Newton form on the nodes 0..N (forward differences over m!), expanded
    # by Horner's rule in the factors (t - m).
    top = len(values) - 1
    newton, diffs = [], list(values)
    for m in range(top + 1):
        newton.append(Fraction(diffs[0], math.factorial(m)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [newton[top]]
    for m in range(top - 1, -1, -1):
        coeffs = [b - m * a for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += newton[m]
    return coeffs


def test_chi_at_twists_0_to_n_recovers_the_chern_vector():
    """Round trip: chi(F(t)) at t = 0..N fixes p_0..p_N, because
    q_j(t) = sum_{k>=j} [N+1, k+1] binom(k, j) t^(k-j) has degree N - j and
    leading coefficient binom(N, j); Newton's identities read backwards,
    k c_k = sum_{l=1..k} (-1)^(l-1) c_(k-l) p_l, then give back the classes.
    The Stirling numbers come from x(x+1)...(x+N), not from the library."""
    rng = random.Random(2008)
    for _ in range(100):
        dim, rank = rng.randint(1, 10), rng.randint(1, 5)
        classes = tuple(rng.randint(-40, 40) for _ in range(dim))
        cv = ChernVector(dim, rank, classes)
        values = [evaluate_chi(cv, t) * math.factorial(dim) for t in range(dim + 1)]
        v = _interpolate(values)
        assert all(c.denominator == 1 for c in v), cv
        # The coefficient of t^m is sum_{j<=N-m} p_j [N+1, j+m+1] binom(j+m, j).
        s = _rising_factorial(dim)
        p = [None] * (dim + 1)
        for m in range(dim, -1, -1):
            top = dim - m
            rest = v[m] - sum(p[j] * s[j + m + 1] * math.comb(j + m, j) for j in range(top))
            p[top] = Fraction(rest, math.comb(dim, m))
        assert p[0] == rank, cv
        c = [1]
        for k in range(1, dim + 1):
            c.append(Fraction(sum((-1) ** (l - 1) * c[k - l] * p[l] for l in range(1, k + 1)), k))
        assert tuple(c[1:]) == classes, cv


def _partition_counts(top: int) -> list:
    """p(0..top), the number of partitions of each integer."""
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            counts[total] += counts[total - part]
    return counts


def test_power_sums_have_one_term_per_partition():
    # B_r has a nonzero coefficient for every partition of r.
    p = _partition_counts(30)
    for r in range(1, 31):
        assert len(power_sum_recursive(r)) == p[r]


def test_chi_has_one_term_per_partition_of_each_weight():
    # One term per partition of each weight 1..N, plus the rank; no
    # coefficient of the sum cancels.
    p = _partition_counts(24)
    for dim in range(1, 25):
        assert len(chi_polynomial(None, dim)) == sum(p[1 : dim + 1]) + 1


def _todd_projective(dim: int) -> list:
    """td(P^dim) = (H / (1 - e^-H))^(dim+1), coefficients of H^0..H^dim."""
    # (1 - e^-H) / H = sum_m (-1)^m H^m / (m+1)!; invert it, then power up.
    series = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(dim + 1)]
    inverse = [Fraction(1)] + [Fraction(0)] * dim
    for m in range(1, dim + 1):
        inverse[m] = -sum(series[i] * inverse[m - i] for i in range(1, m + 1))
    todd = [Fraction(1)] + [Fraction(0)] * dim
    for _ in range(dim + 1):
        todd = [sum(todd[i] * inverse[m - i] for i in range(m + 1)) for m in range(dim + 1)]
    return todd


@pytest.mark.parametrize("dim", range(1, 16))
def test_weights_are_todd_class_coefficients(dim):
    # Hirzebruch-Riemann-Roch on P^N: chi(F(t)) = sum_k B_k / k! *
    # [H^(N-k)] (e^(tH) td(P^N)) (Fulton, Intersection Theory, ch. 15), so
    # the weight of B_k over N! is that coefficient over k!, with no
    # Stirling number and no elementary_values in sight.  Untwisted at
    # dims 1-15, and at twists -6..6 up to dim 12.
    todd = _todd_projective(dim)
    for twist in range(-6, 7) if dim <= 12 else (0,):
        exp = [Fraction(twist**m, math.factorial(m)) for m in range(dim + 1)]
        series = [sum(exp[i] * todd[m - i] for i in range(m + 1)) for m in range(dim + 1)]
        weights = eulerchi._weights(dim, twist)
        for k in range(dim + 1):
            assert (Fraction(weights[k], math.factorial(dim))
                    == series[dim - k] / math.factorial(k)), (twist, k)


def test_rank_below_dimension_still_consistent():
    # rank 1 on the plane with nonzero c2 (e.g. an ideal sheaf shape):
    # the polynomial identity still pins the c2 contribution
    p = chi_polynomial(1, 2)
    assert p.coefficient({"C2": 1}) == -1
    # chi(O(a) + O(b)) twisted on the plane, against the direct
    # consecutive-product count (valid for any degree, negatives too)
    def line(d):
        return (d + 1) * (d + 2) // 2

    for a in range(3):
        for b in range(3):
            cv = ChernVector(2, 2, (a + b, a * b))
            for t in range(-2, 3):
                assert evaluate_chi(cv, t) == line(a + t) + line(b + t)


# -- the cached canonical order and the bracket split ------------------------

def _fresh_sort(poly):
    return sorted(poly._terms, key=algebra._order_key)


def _built_in_order(poly) -> bool:
    """poly was made sorted, and its term dict is in canonical order."""
    return poly._sorted and list(poly._terms) == _fresh_sort(poly)


@pytest.mark.parametrize("rank", [None, 3])
def test_inherited_orders_equal_a_fresh_sort(rank):
    """The orders prefactor_parts and collect hand on are the canonical ones."""
    for dim in range(1, 13):
        for poly in (chi_polynomial(rank, dim), chi_twist_polynomial(rank, dim)):
            assert list(poly._ordered()) == _fresh_sort(poly)
            for part in prefactor_parts(poly, dim):
                assert _built_in_order(part)
            groups = list(poly.collect(TWIST).values())
            groups += prefactor_parts(poly, dim)[0].collect(TWIST).values()
            for group in groups:
                assert _built_in_order(group)


def _twist_assembly(rank, dim: int, cache) -> Polynomial:
    """G as (1/N!) sum_j q_j(T) B_j over the recursion's power sums, with
    q_j(T) = sum_{k>=j} [N+1, k+1] binom(k, j) T^(k-j): the assembly the
    closed form replaced, kept here as its reference."""
    stirling = [unsigned_stirling1(dim + 1, k + 1) for k in range(dim + 1)]
    weights = [sum(stirling[k] * math.comb(k, j) * T ** (k - j) for k in range(j, dim + 1))
               for j in range(dim + 1)]
    sums = [n if rank is None else Polynomial.constant(rank)]
    sums += [cache.power_sum(k) for k in range(1, dim + 1)]
    return Polynomial.sum_of_products(zip(weights, sums), math.factorial(dim))


@pytest.mark.parametrize("rank", [None, 1, 3])
def test_closed_form_equals_the_power_sum_assembly(rank):
    """chi and G as the library builds them (Waring's closed form) have the
    power-sum assembly's terms and denominator, and come with their
    canonical order already set."""
    cache = PowerSumCache()
    builds = [(eulerchi._cached_chi.__wrapped__(rank, dim, "recursive"),
               build_chi_polynomial(rank, dim, "recursive", cache)) for dim in range(1, 25)]
    builds += [(eulerchi._cached_chi_twist.__wrapped__(rank, dim),
                _twist_assembly(rank, dim, cache)) for dim in range(1, 17)]
    for got, reference in builds:
        assert (got._den, got._terms) == (reference._den, reference._terms)
        assert _built_in_order(got)


# Split bundles of several ranks, with negative degrees among them.
_LARGE_DIM_BUNDLES = ((3, -2, 5), (-4,), (1, -1, 0, 7, -3, 2))


def _split_point(bundle):
    classes = bundle.chern_vector().classes
    return {RANK: bundle.rank, **{chern(i): c for i, c in enumerate(classes, 1)}}


@pytest.mark.parametrize("dim", [25, 29, 32, 36, 40])
def test_symbolic_chi_above_the_term_for_term_range_counts_split_bundles(dim):
    """chi at the symbolic rank, past the dims that
    test_closed_form_equals_the_power_sum_assembly compares term for term,
    evaluated at split bundles equals their line-bundle counts.  Built
    outside the cache, which would otherwise keep every polynomial."""
    chi = eulerchi._cached_chi.__wrapped__(None, dim, "recursive")
    for degrees in _LARGE_DIM_BUNDLES:
        bundle = SplitBundle(dim, degrees)
        assert chi.evaluate(_split_point(bundle)) == split_chi(bundle), degrees


@pytest.mark.parametrize("dim", [17, 20, 24])
def test_symbolic_g_above_the_term_for_term_range_counts_split_bundles(dim):
    """G at the symbolic rank, past the term-for-term dims, equals the twisted
    line-bundle counts of split bundles, negative twists included."""
    G = eulerchi._cached_chi_twist.__wrapped__(None, dim)
    for degrees in _LARGE_DIM_BUNDLES:
        bundle = SplitBundle(dim, degrees)
        point = _split_point(bundle)
        for t in (-7, 0, 4):
            assert G.evaluate({**point, TWIST: t}) == split_chi_twist(bundle, t), (degrees, t)


def test_chi_text_keeps_a_reduced_denominator_above_ten_to_the_thirty():
    """At dim 29 the leading coefficient is 1/29!, about 8.8e30: the text
    writes that fraction in full."""
    chi = eulerchi._cached_chi.__wrapped__(None, 29, "recursive")
    assert chi.to_text().startswith(f"1/{math.factorial(29)}*C1^29 ")


def test_chi_json_above_the_digest_range_parses_and_counts_its_terms():
    """At dim 29, where no golden or digest renders to_json, the payload
    parses, starts with the reduced 1/29! on C1^29 and lists every term
    and variable."""
    chi = eulerchi._cached_chi.__wrapped__(None, 29, "recursive")
    payload = json.loads(chi.to_json())
    assert payload["terms"][0] == {"coeff": f"1/{math.factorial(29)}", "exps": {"C1": 29}}
    assert len(payload["terms"]) == len(chi)
    assert payload["vars"] == chi.variables()


def test_emitting_chi_and_g_sorts_nothing_and_builds_no_power_sum(capsys, monkeypatch):
    calls = []
    key, power_sum = algebra._order_key, PowerSumCache.power_sum
    monkeypatch.setattr(algebra, "_order_key", lambda mono: calls.append(mono) or key(mono))
    monkeypatch.setattr(PowerSumCache, "power_sum",
                        lambda self, r: calls.append(r) or power_sum(self, r))
    chi_polynomial.cache_clear()
    chi_twist_polynomial.cache_clear()
    printed = []
    for command, dim in (("emit-chi", 12), ("emit-chi-twist", 8)):
        for fmt in ("text", "latex", "json"):
            assert cli.main([command, "--rank", "n", "--dim", str(dim), "--format", fmt]) == 0
            printed.append((dim, fmt, command == "emit-chi-twist", capsys.readouterr().out))
    assert calls == []
    assert chi_polynomial.cache_info().misses == chi_twist_polynomial.cache_info().misses == 1
    # The same text as a copy that sorts its terms afresh.
    monkeypatch.undo()
    for dim, fmt, twisted, out in printed:
        poly = (chi_twist_polynomial if twisted else chi_polynomial)(None, dim)
        copy = Polynomial.from_json(poly.to_json())
        assert not copy._sorted
        assert out == cli._emit_chi(copy, dim, fmt, twisted) + "\n"


def test_rendering_chi_again_sorts_nothing(monkeypatch):
    """Once chi is sorted, neither the bracket nor its T-groups sort again."""
    poly = Polynomial.from_json(chi_twist_polynomial(None, 6).to_json())  # not yet sorted
    calls = []
    key = algebra._order_key
    monkeypatch.setattr(algebra, "_order_key", lambda mono: calls.append(mono) or key(mono))
    first = [cli.format_chi_text(poly, 6, twisted) for twisted in (False, True)]
    # One key per term, once; the T^k written after each group is a single
    # term, in order as it stands.
    assert len(calls) == len(poly)
    calls.clear()
    assert [cli.format_chi_text(poly, 6, twisted) for twisted in (False, True)] == first
    assert not calls


def test_prefactor_parts_builds_only_its_two_results(monkeypatch):
    poly = chi_polynomial(None, 8)
    made = []
    make = Polynomial._make.__func__
    monkeypatch.setattr(Polynomial, "_make",
                        classmethod(lambda cls, *a: made.append(a) or make(cls, *a)))
    prefactor_parts(poly, 8)
    assert len(made) == 2


_SPLIT_CASES = [
    chi_polynomial(None, 5),
    chi_twist_polynomial(2, 4),
    # denominators 2, 7 and 11: 7 and 11 divide none of 1!, 3!, 6!, so the bracket is not integral
    Fraction(1, 7) * C1**2 - Fraction(5, 2) * n + Fraction(3, 11),
    Polynomial.constant(Fraction(4, 9)),
    n * Fraction(-2, 5),
    T**3 - C2 * n + 4 * n**2 + 1,
    Polynomial.zero(),
]


@pytest.mark.parametrize("poly", _SPLIT_CASES, ids=lambda p: p.to_text()[:30])
@pytest.mark.parametrize("dim", [1, 3, 6])
def test_prefactor_parts_matches_subtract_and_scale(poly, dim):
    tail = Polynomial.constant(poly.constant_term()) + poly.coefficient({RANK: 1}) * n
    bracket = (poly - tail) * math.factorial(dim)
    assert prefactor_parts(poly, dim) == (bracket, tail)
    got_bracket, got_tail = prefactor_parts(poly, dim)
    assert (got_bracket._den, got_bracket._terms) == (bracket._den, bracket._terms)
    assert (got_tail._den, got_tail._terms) == (tail._den, tail._terms)
    for part in (got_bracket, got_tail):
        assert _built_in_order(part)


# -- the weights as a product of linear factors ------------------------------

@pytest.mark.parametrize("dim", range(1, 41))
def test_untwisted_weights_are_stirling_numbers(dim):
    assert list(eulerchi._weights(dim, 0)) == [
        unsigned_stirling1(dim + 1, k + 1) for k in range(dim + 1)
    ]


@pytest.mark.parametrize("dim", range(1, 21))
def test_twisted_weights_are_shifted_stirling_sums(dim):
    """q_j(t) = sum_{k>=j} [N+1, k+1] binom(k, j) t^(k-j), from the paper's Stirling numbers."""
    stirling = [unsigned_stirling1(dim + 1, k + 1) for k in range(dim + 1)]

    def expected(t):
        return [sum(stirling[k] * math.comb(k, j) * t ** (k - j) for k in range(j, dim + 1))
                for j in range(dim + 1)]

    for t in range(-5, 6):
        assert list(eulerchi._weights(dim, t)) == expected(t)
