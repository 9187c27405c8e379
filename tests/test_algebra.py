import ast
import importlib
import inspect
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chipoly.algebra import AUX, RANK, TWIST, Polynomial, chern, standard_weight
from chipoly.bench import run_bench
from chipoly.oracle import Lcg, SplitBundle, split_chi_twist, verify
from chipoly.stirling import StirlingTable, h0_line_bundle, unsigned_stirling1
from chipoly.symmfun import elementary_values

C1 = Polynomial.variable("C1")
C2 = Polynomial.variable("C2")
T = Polynomial.variable("T")


def test_chern_names():
    assert chern(1) == "C1"
    assert chern(12) == "C12"
    with pytest.raises(ValueError):
        chern(0)
    with pytest.raises(ValueError):
        chern(-3)


def test_variable_rejects_unknown_names():
    with pytest.raises(ValueError):
        Polynomial.variable("Q")
    with pytest.raises(ValueError):
        Polynomial.variable("C0")
    with pytest.raises(ValueError):
        Polynomial.variable("C01")


def _fast_cases():
    yield pytest.param(Polynomial.zero, [], id="zero")
    yield pytest.param(Polynomial, [], id="Polynomial()")
    for v in (0, 5, -3, Fraction(0), Fraction(-2, 6), Fraction(7, 3)):
        yield pytest.param(lambda v=v: Polynomial.constant(v), [({}, v)],
                           id=f"constant-{type(v).__name__}-{v}")
    for name in ("C1", f"C{2**62 - 1}", "T", "X", "n"):
        yield pytest.param(lambda name=name: Polynomial.variable(name), [({name: 1}, 1)],
                           id=f"variable-{name}")
    # A string in place of the from_terms pairs is the refusal to expect.
    for name in ("C0", "Q", 1):
        yield pytest.param(lambda name=name: Polynomial.variable(name), "unknown variable",
                           id=f"variable-{name!r}-refused")
    # A dict iterates its keys: "C1" unpacks to ("C", "1"), and "1" is no coefficient.
    yield pytest.param(lambda: Polynomial.from_terms({"C1": 1}), "coefficient",
                       id="from_terms-dict-refused")


@pytest.mark.parametrize("build, spelled", _fast_cases())
def test_fast_constructors_match_from_terms(build, spelled):
    """zero, constant and variable skip names, yet build what from_terms builds."""
    if isinstance(spelled, str):
        with pytest.raises(ValueError, match=spelled):
            build()
        return
    fast, slow = build(), Polynomial.from_terms(spelled)
    assert (fast._terms, fast._den, hash(fast)) == (slow._terms, slow._den, hash(slow))


@pytest.mark.parametrize("terms", [{"C1": 1}, {"C12": 1}, [("C1", 1)], {}, "C1", 5,
                                   [({"C1": 1}, 2, 3)], [({"C1": 1},)]])
def test_from_terms_refuses_other_shapes(terms):
    """Only ({name: exponent}, coefficient) pairs are terms; the error names that shape."""
    with pytest.raises(ValueError, match=r"\(\{name: exponent\}, coefficient\) pairs"):
        Polynomial.from_terms(terms)


def test_rational_arithmetic_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(-2, 4) == Fraction(-1, 2)
    assert Fraction(1, 24) * 50 == Fraction(25, 12)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_difference_of_squares():
    assert (C1 + 1) * (C1 - 1) == C1**2 - 1


def test_additive_identity():
    p = C1**2 - 2 * C2
    assert p + Polynomial.zero() == p
    assert p + 0 == p


def test_product_example():
    assert (C1**2 - 2 * C2) * C1 == C1**3 - 2 * C1 * C2


def test_scale_prunes_zeros():
    p = (C1 + C2) * 0
    assert p.is_zero
    assert len(p) == 0
    assert (C1 - C1).is_zero


def test_scalar_division():
    assert (2 * C1) / 2 == C1
    assert (C1 * 3) / Fraction(3, 2) == 2 * C1


def test_power():
    assert C1**0 == Polynomial.constant(1)
    assert (C1 + 1) ** 2 == C1**2 + 2 * C1 + 1
    with pytest.raises(ValueError):
        C1 ** (-1)


def test_substitute_binomial_expansion():
    p = C1**2
    out = p.substitute({"C1": C1 + 2 * T})
    assert out == C1**2 + 4 * C1 * T + 4 * T**2


def test_substitute_empty_bindings_is_identity():
    p = C1**2 - 2 * C2 + 5
    assert p.substitute({}) == p


def test_substitute_simultaneous_with_cancellation():
    p = C1**2 - 2 * C2
    out = p.substitute({"C1": C1 + T, "C2": C2 + T * C1})
    assert out == C1**2 - 2 * C2 + T**2


def test_substitute_unbound_variables_pass_through():
    p = C1 * C2 + C2**2
    out = p.substitute({"C1": Polynomial.constant(0)})
    assert out == C2**2


def test_substitute_accepts_scalars():
    p = C1**2 + C2
    assert p.substitute({"C1": 3}) == C2 + 9


def test_substitute_mixed_bindings_stay_simultaneous():
    """A scalar binding does not reach the variables a polynomial binding brings in."""
    p = C1 * C2 + Fraction(1, 2) * C2**2
    out = p.substitute({"C1": C2 + T, "C2": Fraction(3, 2)})
    assert out == Fraction(3, 2) * (C2 + T) + Fraction(9, 8)


@pytest.mark.parametrize("bindings, error", [
    ({"Z": 1}, ValueError), ({"Z": 0.5}, ValueError),
    ({"C1": 0.5}, TypeError), ({"C1": True}, TypeError), ({"C1": "1"}, TypeError),
])
def test_substitute_refuses_unknown_names_and_inexact_values(bindings, error):
    """An unknown name is a ValueError, whatever its value; a value that is not
    a Polynomial, int or Fraction is a TypeError."""
    with pytest.raises(error, match="Z" if error is ValueError else "C1"):
        (C1**2 + C2).substitute(bindings)


@pytest.mark.parametrize("call, error, match", [
    (lambda p: p + "x", TypeError, "unsupported operand"),
    (lambda p: p - "x", TypeError, "unsupported operand"),
    (lambda p: "x" - p, TypeError, "unsupported operand"),
    (lambda p: p * 1.5, TypeError, "unsupported operand"),
    (lambda p: p / p, TypeError, "unsupported operand"),
    (lambda p: Polynomial.sum_of_products([(p, "x")]), TypeError, "factors must be"),
    (lambda p: p.coefficient(["C1"]), ValueError, "exponents must map variable names"),
], ids=["p+str", "p-str", "str-p", "p*float", "p/p", "sum_of_products-str", "coefficient-list"])
def test_operators_refuse_other_operands(call, error, match):
    """Operands the arithmetic does not take (a str, a float, a polynomial
    divisor) and exponents that are not a mapping are refused, not coerced."""
    with pytest.raises(error, match=match):
        call(C1**2 + C2 / 3)


def test_eval_examples():
    p = C1**2 - 2 * C2
    assert p.evaluate({"C1": 3, "C2": 2}) == 5
    assert Polynomial.constant(7).evaluate({}) == 7
    assert (C1 + T).evaluate({"C1": 1, "T": -1}) == 0


def test_eval_unbound_variable_is_named():
    p = C1 + C2
    with pytest.raises(ValueError, match="C2"):
        p.evaluate({"C1": 1})
    # The same after a successful evaluation.
    assert p.evaluate({"C1": 1, "C2": 2}) == 3
    with pytest.raises(ValueError, match="C2"):
        p.evaluate({"C1": 1})
    with pytest.raises(ValueError, match="C1"):
        p.evaluate({"C2": 1})


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", None, 1j])
def test_eval_rejects_inexact_values(bad):
    p = C1**2 + C2
    with pytest.raises(ValueError, match="C1"):
        p.evaluate({"C1": bad, "C2": 1})
    with pytest.raises(ValueError, match="C2"):
        p.evaluate({"C1": 1, "C2": bad})


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", None, 1j])
def test_construction_rejects_inexact_coefficients(bad):
    with pytest.raises(ValueError, match="coefficient"):
        Polynomial.constant(bad)
    with pytest.raises(ValueError, match="coefficient"):
        Polynomial.from_terms([({"C1": 1}, bad)])


@pytest.mark.parametrize("bad", [0.1, 2.0, None, [1], {"num": 1}])
def test_from_json_rejects_inexact_coefficients(bad):
    text = json.dumps({"terms": [{"coeff": bad, "exps": {"C1": 1}}]})
    with pytest.raises(ValueError, match="coefficient"):
        Polynomial.from_json(text)


def test_from_json_accepts_string_and_int_coefficients():
    text = json.dumps({"terms": [{"coeff": "-1/3", "exps": {"C1": 1}},
                                 {"coeff": 2, "exps": {}}]})
    assert Polynomial.from_json(text) == C1 * Fraction(-1, 3) + 2


@pytest.mark.parametrize("payload", [
    {"terms": [{"coeff": "1", "exps": [1]}]},
    {"vars": 5, "terms": []},
    {"terms": 5},
    {"vars": [3], "terms": []},
    {"terms": [{"coeff": "1/0", "exps": {}}]},
])
def test_from_json_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError):
        Polynomial.from_json(json.dumps(payload))


def test_from_json_refuses_deep_nesting():
    # json.loads recurses once per bracket; past the recursion limit it
    # would raise RecursionError, not the promised ValueError.
    for text in ("[" * 100000, '{"terms": ' * 100000):
        with pytest.raises(ValueError, match="nested too deeply"):
            Polynomial.from_json(text)


def test_constants_hash_like_their_values():
    """A constant polynomial equals its value, so it hashes like it too."""
    for value in (3, -7, Fraction(1, 2), Fraction(-5, 3), 0, 10**40):
        p = Polynomial.constant(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
    assert hash(Polynomial.zero()) == hash(0) and len({Polynomial.zero(), 0}) == 1
    assert hash(C1 - C1) == hash(0)


def test_bools_are_not_integers():
    with pytest.raises(ValueError, match="coefficient"):
        Polynomial.from_json('{"terms": [{"coeff": true, "exps": {"C1": 1}}]}')
    with pytest.raises(ValueError, match="exponent"):
        Polynomial.from_json('{"terms": [{"coeff": 1, "exps": {"C1": true}}]}')
    with pytest.raises(ValueError, match="coefficient"):
        Polynomial.constant(True)
    with pytest.raises(ValueError, match="exponent"):
        Polynomial.from_terms([({"C1": True}, 1)])
    with pytest.raises(ValueError, match="exponent"):
        C1 ** True
    with pytest.raises(ValueError, match="Chern index"):
        chern(True)
    with pytest.raises(ValueError, match="C1"):
        C1.evaluate({"C1": True})


# Each call took a float or a bool where the library needs an int, and
# returned a float, ran on, or raised TypeError instead of ValueError.
@pytest.mark.parametrize("call, noun", [
    (lambda: h0_line_bundle(2, 1.5), "degree"),
    (lambda: h0_line_bundle(True, 3), "dimension"),
    (lambda: elementary_values([1.5, 2], 2), "values"),
    (lambda: Lcg(1).next_int(2.5), "bound"),
    (lambda: split_chi_twist(SplitBundle(2, (1,)), 1.5), "twist"),
    (lambda: split_chi_twist(SplitBundle(2, (1,)), True), "twist"),
    (lambda: verify(2, 2, 1, True, 1), "max-a: expected an integer, at least 0, at most 65535"),
    (lambda: verify(2, 2, 2.5, 3, 1), "trials"),
    (lambda: verify(2, 2, 1, 3, 1, twist_range=1.5), "twist-range"),
    (lambda: verify(2, 2, 1, 3, 1.5), "seed"),
    (lambda: run_bench(2, repetitions=2.5), "repetitions"),
    (lambda: StirlingTable().row(2.5), "row index"),
    (lambda: StirlingTable().ensure_rows(2.5), "row index"),
    (lambda: StirlingTable().ensure_rows(True), "row index"),
    (lambda: unsigned_stirling1(2.5, 1), "^n: "),
    (lambda: Polynomial.sum_of_products([(C1, 1)], 0), "denominator"),
    (lambda: Polynomial.sum_of_products([(C1, 1)], -2), "denominator"),
    (lambda: Polynomial.sum_of_products([(C1, 1)], True), "denominator"),
    (lambda: Polynomial.sum_of_products([(C1, 1)], 1.5), "denominator"),
], ids=["h0-degree", "h0-dim", "elementary", "next_int", "split_chi_twist-float",
        "split_chi_twist-bool", "verify-max_a", "verify-trials",
        "verify-twist_range", "verify-seed", "bench-repetitions", "stirling-row",
        "stirling-ensure_rows-float", "stirling-ensure_rows-bool", "unsigned_stirling1",
        "sum_of_products-den-zero", "sum_of_products-den-negative", "sum_of_products-den-bool",
        "sum_of_products-den-float"])
def test_integer_arguments_raise_value_error(call, noun):
    with pytest.raises(ValueError, match=noun):
        call()


@pytest.mark.parametrize("module", ["algebra", "eulerchi", "symmfun", "stirling", "oracle"])
def test_library_holds_no_floats(module):
    """Arithmetic stays exact: no float literal and no use of the name float.

    bench and cli are left out, since they deal in seconds.
    """
    tree = ast.parse(inspect.getsource(importlib.import_module(f"chipoly.{module}")))
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             or isinstance(node, ast.Name) and node.id == "float"]
    assert found == []


def test_eval_rational_point():
    p = C1**2 + Fraction(1, 2)
    assert p.evaluate({"C1": Fraction(1, 3)}) == Fraction(11, 18)


def test_eval_extra_bindings_are_fine():
    assert C1.evaluate({"C1": 4, "C2": 99, "T": 1}) == 4
    assert C1.evaluate({"C1": 4, "C2": 0.5, "T": "x"}) == 4


def test_eval_zero_and_constant():
    zero = Polynomial.zero()
    assert zero.evaluate({}) == 0
    assert zero.evaluate({"C1": 3, "T": Fraction(1, 2)}) == 0
    half = Polynomial.constant(Fraction(-1, 2))
    for point in ({}, {"C1": 5}, {"C1": 5, "n": 2}):
        value = half.evaluate(point)
        assert value == Fraction(-1, 2)
        assert isinstance(value, Fraction)


def _reference_value(p, point):
    """Term-by-term sum in Fractions, independent of evaluate's integer loop."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        t = coeff
        for var, e in mono:
            t *= Fraction(point[var]) ** e
        total += t
    return total


def test_eval_plan_reused_across_points():
    p = (Fraction(2, 3) * C1**3 * T - 5 * C2**2 + Fraction(1, 4) * C1 * C2 * T**2
         - Polynomial.variable(RANK) + Fraction(7, 6))
    values = [-3, -1, 0, 1, 2, 60000, Fraction(-2, 3), Fraction(5, 7)]
    for a in values:
        for b in values:
            for t in (-4, 0, 3, Fraction(1, 2)):
                point = {"C1": a, "C2": b, "T": t, RANK: 3}
                value = p.evaluate(point)
                assert isinstance(value, Fraction)
                assert value == _reference_value(p, point), point


def test_coefficient_lookup():
    p = 3 * C1**2 * C2 - Fraction(1, 2) * C2 + 4
    assert p.coefficient({"C1": 2, "C2": 1}) == 3
    assert p.coefficient({"C2": 1}) == Fraction(-1, 2)
    assert p.coefficient({}) == 4
    assert p.coefficient({"C1": 5}) == 0
    assert p.constant_term() == 4


def test_collect():
    g = (C1 + T) ** 2
    groups = g.collect("T")
    assert groups[2] == Polynomial.constant(1)
    assert groups[1] == 2 * C1
    assert groups[0] == C1**2


def test_variables_and_degree():
    p = C1 * C2**2 + T + Polynomial.variable(RANK)
    assert p.variables() == ["C1", "C2", "T", RANK]
    assert p.total_degree() == 3
    assert Polynomial.zero().total_degree() == 0


def test_weighted_degrees():
    p = Polynomial.variable("C3") + C1 * C2 + T**3
    assert p.weighted_degrees() == {3}
    assert standard_weight("C7") == 7
    assert standard_weight(TWIST) == 1
    assert standard_weight(AUX) == 1
    assert standard_weight(RANK) == 0


def test_text_rendering_order_and_signs():
    p = C2 * 30 - 70 * C2**2 + C1**4 - Fraction(1, 2)
    # graded lex: C1^4 (deg 4), C2^2 (deg 2), C2, constant
    assert p.to_text() == "C1^4 - 70*C2^2 + 30*C2 - 1/2"
    assert Polynomial.zero().to_text() == "0"
    assert (-C1).to_text() == "-C1"
    assert Polynomial.constant(Fraction(5, 6)).to_text() == "5/6"


def test_text_is_str():
    p = C1 - 1
    assert str(p) == p.to_text()
    assert "C1" in repr(p)


def test_latex_rendering():
    p = Fraction(5, 6) * C1**2 * C2 - C2 + 1
    assert p.to_latex() == "\\frac{5}{6} C_{1}^{2} C_{2} - C_{2} + 1"
    assert T.to_latex() == "T"
    q = (Fraction(-1, 2) * T**3 - C1 * C2 + Polynomial.variable("C12")
         - Polynomial.variable(RANK) + Fraction(7, 3))
    assert q.to_latex() == "-\\frac{1}{2} T^{3} - C_{1} C_{2} + C_{12} - n + \\frac{7}{3}"
    assert Polynomial.constant(Fraction(-3, 4)).to_latex() == "-\\frac{3}{4}"
    assert Polynomial.zero().to_latex() == "0"


def test_canonical_order_ties_brokeby_variable():
    # same total degree: C1^2 before C1*C2 before C2^2 before C1*T
    p = C2**2 + C1 * C2 + C1**2 + C1 * T
    assert p.to_text() == "C1^2 + C1*C2 + C1*T + C2^2"


def test_json_round_trip_and_schema():
    p = Fraction(5, 6) * C1**2 - 2 * C2 + Polynomial.variable(RANK)
    payload = json.loads(p.to_json())
    assert payload["vars"] == ["C1", "C2", "n"]
    assert payload["terms"][0] == {"coeff": "5/6", "exps": {"C1": 2}}
    q = Polynomial.from_json(p.to_json())
    assert q == p
    assert q.to_json() == p.to_json()


def test_from_json_merges_and_validates():
    text = json.dumps(
        {
            "vars": ["C1"],
            "terms": [
                {"coeff": "1", "exps": {"C1": 1}},
                {"coeff": "2", "exps": {"C1": 1}},
            ],
        }
    )
    assert Polynomial.from_json(text) == 3 * C1

    with pytest.raises(ValueError):
        Polynomial.from_json(json.dumps({"vars": [], "terms": [{"coeff": "1"}]}))
    with pytest.raises(ValueError):
        Polynomial.from_json(json.dumps({"terms": [{"coeff": "1", "exps": {"bogus": 1}}]}))
    with pytest.raises(ValueError):
        Polynomial.from_json("[1, 2]")


def test_from_terms_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial.from_terms([({"C1": -1}, 1)])
    with pytest.raises(ValueError):
        Polynomial.from_terms([({"C1": 1.5}, 1)])


def test_common_denominator():
    p = Fraction(1, 6) * C1 + Fraction(1, 4) * C2
    assert p.common_denominator() == 12
    assert Polynomial.zero().common_denominator() == 1


def test_equality_with_scalars():
    assert Polynomial.constant(3) == 3
    assert Polynomial.zero() == 0
    assert not (C1 == 3)
    # Any other operand is left to Python, which compares identity.
    assert C1.__eq__("x") is NotImplemented and (C1 == "x") is False


# -- property tests ------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exponents = st.integers(min_value=0, max_value=3)


@st.composite
def polynomials(draw, var_names=("C1", "C2", "T")):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for _ in range(n_terms):
        exps = {v: draw(exponents) for v in var_names}
        terms.append((exps, draw(coeffs)))
    return Polynomial.from_terms(terms)


@settings(deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(polynomials(var_names=("C1", "C2")), polynomials(var_names=("C2", "T")),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_eval_substitute_coherence(p, q, c2, t):
    point = {"C2": c2, "T": t}
    substituted = p.substitute({"C1": q})
    direct = p.evaluate({"C1": q.evaluate(point), "C2": c2})
    assert substituted.evaluate(point) == direct


# Values around 60000 are the size of the oracle's largest summand degrees.
binding_values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=59990, max_value=60010),
    st.integers(min_value=-60010, max_value=-59990),
    st.fractions(min_value=-70000, max_value=70000, max_denominator=60007),
)


@settings(deadline=None)
@given(st.one_of(polynomials(var_names=("C1", "C2", "T", "n")),
                 st.builds(Polynomial.constant, binding_values)),
       st.dictionaries(st.sampled_from(("C1", "C2", "T", "X", "n")), binding_values))
def test_scalar_binding_matches_polynomial_path(p, binding):
    """Scalars bound in one pass equal constant polynomials substituted term by term.

    The binding names variables that occur in p, and X, which never does;
    the variables of p it leaves out pass through.
    """
    bound = p.substitute(binding)
    assert bound == p.substitute({v: Polynomial.constant(x) for v, x in binding.items()})
    for v, x in binding.items():
        assert p.substitute({v: x}) == p.substitute({v: Polynomial.constant(x)})
    if set(p.variables()) <= set(binding):
        assert bound.variables() == []
        assert bound.constant_term() == p.evaluate(binding)


@settings(deadline=None)
@given(polynomials())
def test_serialize_parse_serialize_fixed_point(p):
    once = p.to_json()
    again = Polynomial.from_json(once).to_json()
    assert once == again


@settings(deadline=None)
@given(polynomials(), st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_int_evaluation_matches_fraction_path(p, a, b, c):
    point = {"C1": a, "C2": b, "T": c}
    expected = _reference_value(p, point)
    assert p.evaluate(point) == expected
    assert p.evaluate({k: Fraction(v) for k, v in point.items()}) == expected
    halves = {k: Fraction(v, 2) for k, v in point.items()}
    assert p.evaluate(halves) == _reference_value(p, halves)


# -- the integer-numerator representation against a dict-of-Fraction reference

def _ref(terms):
    """{frozenset of (name, exp): Fraction}, zero coefficients dropped."""
    out = {}
    for exps, c in terms:
        key = frozenset((v, e) for v, e in exps.items() if e)
        out[key] = out.get(key, 0) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            key = frozenset(exps.items())
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _as_ref(p):
    return {frozenset(mono): c for mono, c in p.terms()}


def _assert_canonical(p, ref):
    assert _as_ref(p) == ref
    nums = list(p._terms.values())
    assert p._den > 0 and 0 not in nums
    assert math.gcd(p._den, *nums) == 1
    assert p.common_denominator() == math.lcm(*(c.denominator for c in ref.values()))
    # Built again from the reference's own terms: equal state, equal hash.
    again = Polynomial.from_terms([(dict(k), c) for k, c in ref.items()])
    assert again == p and hash(again) == hash(p)
    assert (again._den, again._terms) == (p._den, p._terms)


mixed_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
# Low and huge Chern slots next to T, X and n, so products meet disjoint,
# single-variable and overlapping many-variable monomials alike.
_CORE_NAMES = ("C1", "C2", "C3", "C7", f"C{2**62 - 1}", TWIST, AUX, RANK)
term_lists = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(_CORE_NAMES), exponents), mixed_coeffs),
    max_size=5,
)


@settings(deadline=None)
@given(term_lists, term_lists, mixed_coeffs.filter(bool), st.integers(min_value=0, max_value=3))
def test_integer_core_matches_fraction_reference(a_terms, b_terms, scalar, power):
    p, q = Polynomial.from_terms(a_terms), Polynomial.from_terms(b_terms)
    a, b = _ref(a_terms), _ref(b_terms)
    _assert_canonical(p, a)
    s = {frozenset(): scalar}
    _assert_canonical(p + q, _ref_add(a, b))
    _assert_canonical(p - q, _ref_add(a, b, -1))
    _assert_canonical(scalar - p, _ref_add(s, a, -1))
    _assert_canonical(p * q, _ref_mul(a, b))
    _assert_canonical(p * scalar, _ref_mul(a, s))
    _assert_canonical(p / scalar, {k: c / scalar for k, c in a.items()})
    # Zero results, cancelled or scaled away, have denominator 1.
    _assert_canonical(p - p, {})
    _assert_canonical(p * 0, {})
    expected = {frozenset(): Fraction(1)}
    for _ in range(power):
        expected = _ref_mul(expected, a)
    _assert_canonical(p**power, expected)
    summed = _ref_add(_ref_mul(a, b), _ref_mul(b, s))
    _assert_canonical(Polynomial.sum_of_products([(p, q), (q, scalar)], 6),
                      {k: c / 6 for k, c in summed.items()})


# -- the cached canonical order ---------------------------------------------

def test_second_render_sorts_nothing(monkeypatch):
    """The canonical order is sorted once per polynomial; later renders reuse it."""
    from chipoly import algebra

    p = (C1 + 2 * C2 - T + Polynomial.variable(RANK) - Fraction(1, 3)) ** 3
    calls = []
    key = algebra._order_key
    monkeypatch.setattr(algebra, "_order_key", lambda mono: calls.append(mono) or key(mono))
    first = (p.to_text(), p.to_json(), p.to_latex(), list(p.terms()))
    assert len(calls) == len(p)
    calls.clear()
    assert (p.to_text(), p.to_json(), p.to_latex(), list(p.terms())) == first
    assert calls == []


def test_making_in_order_drops_zero_terms_and_keeps_the_rest_in_order():
    """A zero numerator leaves the term dict of a polynomial made in order,
    and the rest, reduced over the denominator, render in the order given."""
    from chipoly import algebra

    c1, c2, t = ((1, 1),), ((2, 1),), ((algebra._slot(TWIST), 1),)
    p = Polynomial._make({c1: 2, c2: 0, t: -6}, 4, True)
    assert p._sorted and list(p._terms) == [c1, t]
    assert (p._den, p._terms) == (2, {c1: 1, t: -3})
    assert p.to_text() == "1/2*C1 - 3/2*T"
    assert p.to_latex() == "\\frac{1}{2} C_{1} - \\frac{3}{2} T"
    assert p.to_json() == (C1 / 2 - 3 * T / 2).to_json()
    assert list(p.terms()) == [((("C1", 1),), Fraction(1, 2)), ((("T", 1),), Fraction(-3, 2))]


def _renders(p):
    return p.to_text(), p.to_latex(), p.to_json(), list(p.terms()), hash(p)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_keeps_terms_order_and_renders(protocol):
    """bench --timeout sends polynomials through a pipe: a copy of a sorted
    and of a not yet sorted polynomial equals it and renders the same."""
    base = C1 + 2 * C2 - T + Polynomial.variable(RANK) - Fraction(1, 3)
    done, fresh = base**3, base**3
    done.to_text()
    assert done._sorted and not fresh._sorted
    for p in (done, fresh):
        copy = pickle.loads(pickle.dumps(p, protocol))
        assert (copy._sorted, list(copy._terms), copy._den) == (p._sorted, list(p._terms), p._den)
        assert copy == p
        assert _renders(copy) == _renders(p)


# Names across the slot range: low and huge Chern indices, then T, X and n.
_JSON_NAMES = ["C1", "C2", "C10", "C123456789", f"C{2**62 - 1}", TWIST, AUX, RANK]
_json_terms = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(_JSON_NAMES), st.integers(0, 4), max_size=4),
        st.one_of(st.integers(-10**30, 10**30),
                  st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)),
    ),
    max_size=6,
)


def _name_order_key(term):
    """Graded lex on (name, exponent) pairs: C1 < C2 < ... < T < X < n."""
    mono, _ = term
    rank = {TWIST: 2**62, AUX: 2**62 + 1, RANK: 2**62 + 2}
    flat = tuple(x for name, e in mono for x in (rank.get(name) or int(name[1:]), -e))
    return (-sum(e for _, e in mono), flat)


@settings(deadline=None)
@given(_json_terms)
def test_to_json_matches_json_dumps_of_the_payload(terms):
    """to_json writes the text json.dumps makes of the documented payload."""
    p = Polynomial.from_terms(terms)
    payload = {
        "vars": p.variables(),
        "terms": [{"coeff": str(c), "exps": dict(mono)}
                  for mono, c in sorted(p.terms(), key=_name_order_key)],
    }
    assert p.to_json() == json.dumps(payload)
    assert Polynomial.from_json(p.to_json()) == p
