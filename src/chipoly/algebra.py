"""Sparse multivariate polynomials with exact rational coefficients.

Variables are plain strings drawn from a fixed alphabet: the Chern-class
slots ``C1``, ``C2``, ... (one per symmetric-function degree), the twist
variable ``T``, the auxiliary univariate ``X`` used by factorial
polynomials, and the symbolic rank ``n``, in the fixed order
``C1 < C2 < ... < T < X < n``.

Inside, a variable is an integer slot whose natural order is that order:
``Ck`` is slot k and ``T``, ``X``, ``n`` take the three slots after every
Chern slot (Chern indices stay below 2**62).  A monomial is a tuple of
``(slot, exponent)`` pairs, exponents positive, sorted by slot; ``()`` is
the constant monomial.  Monomials with disjoint slot ranges multiply by
concatenation; otherwise one's variables enter the other one at a time,
each by bisection.  A polynomial maps monomials to nonzero integer
numerators over one positive common denominator that shares no factor
with all of them, so equal polynomials have equal state and hashes, and
a constant (zero too) equals and hashes like its int or Fraction value.
Arithmetic runs on these integers alone and has two ways in.  ``_make``
takes numerators already in canonical form (``zero``, ``constant``,
``variable``, ``collect``, the matrix route, eulerchi's closed form and
``prefactor_parts``) and only drops zeros and reduces the denominator.
``sum_of_products`` is the one loop that adds terms up: every product of
its factor pairs lands, scaled, in one integer dict over one denominator.
The recursive power sums and chi assembled from a route's power sums use
it directly, and each operator is one call to it: ``p - q`` is the pairs
(p, 1), (q, -1), and ``p * q`` (q a scalar too) the pair (p, q).
``from_terms`` (which ``from_json`` calls) hands it one (monomial,
coefficient) pair per term, so names and Fractions appear only at the
edges.  ``from_terms`` and ``constant`` take int or Fraction coefficients
only (not a float or a bool, say), and ``terms``, ``coefficient`` and
``constant_term`` give ``(name, exponent)`` monomials and Fractions back.

All renderers (text, LaTeX, JSON) and ``terms`` list terms in graded
lexicographic order, highest total degree first and ties broken by the
variable order above, so equal polynomials always print identically.
The term dict itself holds that order, since dicts keep insertion
order: a polynomial built in order says so when it is made, and any
other is re-keyed into order once, on first need.  Every renderer then
walks the dict as it stands, and ``collect`` fills each group in order,
so nothing is sorted twice.  Text and LaTeX share one term loop, which
places signs, drops unit coefficients and writes constants; the two
formats differ only in their tokens: how a variable power and a
coefficient are written and what joins the factors.  JSON is written
straight from the ordered terms, byte for byte what ``json.dumps`` makes
of the payload ``from_json`` reads.

``evaluate`` checks that the point binds every occurring variable to an
int or a Fraction (any other value is rejected), then sums the terms in
one exact pass over the common denominator; integer points stay in plain
integers until the final division.  ``substitute`` works term by term,
with cached powers of the bound polynomials (a scalar counts as a
constant).

Every integer argument in the library (a rank, dimension, Chern class,
twist, index, exponent or count) goes through ``_check_int``: an int that
is not a bool, within the stated bounds, or a ``ValueError``.  It is
checked once, where it enters a public function or record; the private
helpers such calls reach take it as checked.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

TWIST = "T"
AUX = "X"
RANK = "n"

_CHERN_RE = re.compile(r"^C([1-9][0-9]*)$")

# Slots of the named variables, after every Chern slot.
_CHERN_LIMIT = 1 << 62
_NAMED_SLOTS = {TWIST: _CHERN_LIMIT, AUX: _CHERN_LIMIT + 1, RANK: _CHERN_LIMIT + 2}

Scalar = Union[int, Fraction]
Monomial = tuple


def _is_int(x) -> bool:
    """An int that is not a bool, so JSON true/false never pass for 1/0."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(value, what: str, least=None, most=None):
    """value, if it is an int (not a bool) in least..most; else ValueError naming what."""
    # type() first: nearly every argument is a plain int, and ChernVector and
    # elementary_values check one for each class or value they are given.
    if ((type(value) is int or _is_int(value)) and (least is None or least <= value)
            and (most is None or value <= most)):
        return value
    limits = "".join(f", at {word} {bound}" for word, bound in (("least", least), ("most", most))
                     if bound is not None)
    raise ValueError(f"{what}: expected an integer{limits}, got {value!r}")


def _is_scalar(x) -> bool:
    return isinstance(x, Fraction) or _is_int(x)


def _check_scalar(value):
    """value, if it is an int (not a bool) or a Fraction; else ValueError."""
    if _is_scalar(value):
        return value
    raise ValueError(f"coefficient must be an int or Fraction, got {value!r}")


def chern(i: int) -> str:
    """Name of the i-th Chern-class variable, e.g. chern(2) == "C2"."""
    return f"C{_check_int(i, 'Chern index', 1, _CHERN_LIMIT - 1)}"


def _slot(name) -> int:
    """Slot of a variable name; rejects unknown names."""
    if isinstance(name, str):
        slot = _NAMED_SLOTS.get(name)
        if slot is not None:
            return slot
        m = _CHERN_RE.match(name)
        if m and int(m.group(1)) < _CHERN_LIMIT:
            return int(m.group(1))
    raise ValueError(f"unknown variable name {name!r}")


class _Names(dict):
    def __missing__(self, slot: int) -> str:  # a Chern slot, named on first use
        name = self[slot] = f"C{slot}"
        return name


_NAME = _Names({slot: name for name, slot in _NAMED_SLOTS.items()})  # slot -> name


def standard_weight(var: str) -> int:
    """Grading used throughout: Ck has weight k, T and X weight 1, n weight 0."""
    slot = _slot(var)
    if slot < _CHERN_LIMIT:
        return slot
    return 0 if var == RANK else 1


def _monomial(exps: Mapping[str, int]) -> Monomial:
    """The monomial of a {name: exponent} map; zero exponents drop out."""
    if not isinstance(exps, Mapping):
        raise ValueError(f"exponents must map variable names to integers, got {exps!r}")
    pairs = []
    for var, e in exps.items():
        slot = _slot(var)
        if _check_int(e, f"exponent of {var}", 0):
            pairs.append((slot, e))
    pairs.sort()
    return tuple(pairs)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    # Disjoint slot ranges (a Chern monomial times a power of T, say)
    # concatenate; a single variable is inserted by bisection, and any
    # other monomial is folded in one variable at a time.
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        slot, e = a[0]
        i = bisect_left(b, (slot,))
        if b[i][0] == slot:
            return b[:i] + ((slot, b[i][1] + e),) + b[i + 1 :]
        return b[:i] + a + b[i:]
    for pair in a:
        b = _mono_mul((pair,), b)
    return b


def _reduced(num: int, den: int) -> tuple:
    if den == 1:
        return num, 1
    g = math.gcd(num, den)
    return num // g, den // g


def _order_key(mono: Monomial) -> tuple:
    # Graded lex, encoded so that ascending sort gives the canonical
    # descending-degree order: degree negated, then (slot, -exp) pairs.
    deg = 0
    flat = []
    for slot, e in mono:
        deg += e
        flat += (slot, -e)
    return (-deg, tuple(flat))


# Renderers write each (slot, exponent) pair of a monomial through one of
# these memoised token functions; the pairs are few (variables times
# exponents), so the caches stay small.
@lru_cache(maxsize=4096)
def _text_power(pair: tuple) -> str:
    slot, e = pair
    return _NAME[slot] if e == 1 else f"{_NAME[slot]}^{e}"


@lru_cache(maxsize=4096)
def _json_power(pair: tuple) -> str:
    # Names and exponents are ASCII with nothing to escape.
    slot, e = pair
    return f'"{_NAME[slot]}": {e}'


@lru_cache(maxsize=4096)
def _latex_power(pair: tuple) -> str:
    slot, e = pair
    name = f"C_{{{slot}}}" if slot < _CHERN_LIMIT else _NAME[slot]
    return name if e == 1 else f"{name}^{{{e}}}"


def _text_magnitude(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _latex_magnitude(num: int, den: int) -> str:
    return str(num) if den == 1 else f"\\frac{{{num}}}{{{den}}}"


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("_terms", "_den", "_sorted")

    def __init__(self):
        """The zero polynomial; from_terms builds any other from names."""
        self._terms, self._den, self._sorted = {}, 1, True

    @classmethod
    def _make(cls, nums: dict, den: int = 1, ordered: bool = False) -> "Polynomial":
        """The polynomial sum(nums[m] * m) / den for den > 0; takes nums.

        Zero numerators drop out and den is reduced against the rest,
        both keeping the order of nums.  ordered says that the caller
        filled nums in canonical order; else it is sorted on first need.
        Fewer than two terms are in order as they stand.
        """
        if 0 in nums.values():
            nums = {m: c for m, c in nums.items() if c}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
        poly = object.__new__(cls)
        poly._terms, poly._den, poly._sorted = nums, den, ordered or len(nums) < 2
        return poly

    def _ordered(self) -> dict:
        """The term dict, its keys in canonical order.

        The first call on an unsorted polynomial sorts once and puts a
        new dict in place of the old, which it leaves as it was, so a
        walk already running over that one stays valid.
        """
        if not self._sorted:
            terms = self._terms
            self._terms = {m: terms[m] for m in sorted(terms, key=_order_key)}
            self._sorted = True
        return self._terms

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = _check_scalar(value)
        return cls._make({(): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._make({((_slot(name), 1),): 1})

    @classmethod
    def from_terms(cls, terms: Iterable) -> "Polynomial":
        """Build from ({name: exponent}, coefficient) pairs (exponents may be 0).

        Input of any other shape, such as a {name: coefficient} dict or a
        (name, coefficient) pair, is a ValueError naming the shape.
        """
        shape = "terms must be an iterable of ({name: exponent}, coefficient) pairs"
        if isinstance(terms, Mapping) or not isinstance(terms, Iterable):
            raise ValueError(f"{shape}, got {terms!r}")
        factors = []
        for pair in terms:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and isinstance(pair[0], Mapping)):
                raise ValueError(f"{shape}, got {pair!r} among them")
            exps, coeff = pair
            coeff = _check_scalar(coeff)
            factors.append((cls._make({_monomial(exps): 1}), coeff))
        return cls.sum_of_products(factors)

    @staticmethod
    def sum_of_products(pairs: Iterable, den: int = 1) -> "Polynomial":
        """(1/den) * the sum of a * b over the (a, b) pairs.

        Each factor is a Polynomial, an int or a Fraction, and den is a
        positive int.  Every product lands in one integer dict over one
        denominator, so no intermediate sum is built.  This is the only
        loop that adds terms up: the operators and from_terms call it.
        """
        _check_int(den, "denominator", 1)
        factors = []
        common = 1
        for a, b in pairs:
            a, b = Polynomial._coerce(a), Polynomial._coerce(b)
            if a is None or b is None:
                raise TypeError("factors must be Polynomials, ints or Fractions")
            factors.append((a, b))
            common = math.lcm(common, a._den * b._den)
        acc: dict[Monomial, int] = {}
        get = acc.get
        for a, b in factors:
            scale = common // (a._den * b._den)
            b_terms = b._terms.items()
            for ma, ca in a._terms.items():
                ca *= scale
                for mb, cb in b_terms:
                    mono = _mono_mul(ma, mb)
                    acc[mono] = get(mono, 0) + ca * cb
        return Polynomial._make(acc, common * den)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Largest monomial degree, with the usual convention deg 0 for 0."""
        if not self._terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self._terms)

    def variables(self) -> list[str]:
        """Variables that actually occur, in canonical order."""
        return [_NAME[s] for s in sorted({s for mono in self._terms for s, _ in mono})]

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate ((name, exponent) pairs, coefficient) in canonical display order."""
        for mono, coeff in self._ordered().items():
            yield tuple((_NAME[s], e) for s, e in mono), Fraction(coeff, self._den)

    def coefficient(self, exps: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given exponents (0 if absent)."""
        return Fraction(self._terms.get(_monomial(exps), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((), 0), self._den)

    def weighted_degrees(self) -> set[int]:
        """Set of degrees, weighted by standard_weight, occurring among the terms."""
        return {sum(e * standard_weight(_NAME[s]) for s, e in mono) for mono in self._terms}

    def collect(self, var: str) -> dict[int, "Polynomial"]:
        """Group terms by the power of one variable.

        Returns {exponent: coefficient polynomial} with the variable
        removed from the coefficients.  The terms are walked in canonical
        order and each group keeps that order: removing the same power
        of one variable from monomials of one group changes no
        comparison between them, so the groups need no sort of their own.
        """
        slot = _slot(var)
        groups: dict[int, dict[Monomial, int]] = {}
        for mono, coeff in self._ordered().items():
            k = 0
            rest = []
            for s, e in mono:
                if s == slot:
                    k = e
                else:
                    rest.append((s, e))
            groups.setdefault(k, {})[tuple(rest)] = coeff
        return {k: Polynomial._make(t, self._den, True) for k, t in groups.items()}

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if _is_scalar(other):
            return Polynomial.constant(other)
        return None

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._den == p._den and self._terms == p._terms

    def __hash__(self):
        terms = self._terms
        if not terms or (len(terms) == 1 and () in terms):
            return hash(Fraction(terms.get((), 0), self._den))
        return hash((self._den, frozenset(terms.items())))

    def __add__(self, other) -> "Polynomial":
        p = self._coerce(other)
        return NotImplemented if p is None else Polynomial.sum_of_products([(self, 1), (p, 1)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        return NotImplemented if p is None else Polynomial.sum_of_products([(self, 1), (p, -1)])

    def __rsub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        return NotImplemented if p is None else Polynomial.sum_of_products([(p, 1), (self, -1)])

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        return NotImplemented if p is None else Polynomial.sum_of_products([(self, p)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if _is_scalar(other):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        _check_int(exponent, "exponent", 0)
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- substitution and evaluation ------------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Replace variables by polynomials (or scalars); others pass through.

        The substitution is simultaneous: a variable that a bound
        polynomial brings in is left as it is.  No command calls it; with
        eulerchi.twisted_chern_polynomial it is the paper's substitution,
        the check that G equals chi with the twisted classes put in.
        """
        polys: dict[int, Polynomial] = {}
        for var, value in bindings.items():
            slot = _slot(var)
            p = self._coerce(value)
            if p is None:
                raise TypeError(f"binding for {var} must be a Polynomial or scalar")
            polys[slot] = p
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        products = []
        for mono, coeff in self._terms.items():
            passthrough = tuple((s, e) for s, e in mono if s not in polys)
            factor = 1
            for key in mono:
                if key[0] in polys:
                    if key not in pow_cache:
                        pow_cache[key] = polys[key[0]] ** key[1]
                    factor = pow_cache[key] * factor
            products.append((Polynomial._make({passthrough: coeff}), factor))
        return Polynomial.sum_of_products(products, self._den)

    def common_denominator(self) -> int:
        """Least common multiple of the coefficient denominators (1 for 0)."""
        return self._den

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a point binding every occurring variable to an int or Fraction.

        No command calls it; it is the second route that ties chi and G to
        eulerchi.evaluate_chi (test_twisted_evaluation_routes_agree).
        """
        values = {}
        for var in self.variables():
            if var not in point:
                raise ValueError(f"no value for variable {var} in evaluation point")
            x = point[var]
            if not _is_scalar(x):
                raise ValueError(f"value for variable {var} must be an int or Fraction, got {x!r}")
            values[var] = x
        # Integer points stay in plain integers until the final division;
        # Fraction points run through the same loop.
        total = 0
        for mono, t in self._terms.items():
            for s, e in mono:
                t *= values[_NAME[s]] ** e
            total += t
        return Fraction(total, self._den)

    # -- rendering -------------------------------------------------------

    def _render(self, power, magnitude, sep: str) -> str:
        """Signed terms in canonical order, written in one format's tokens.

        power((slot, e)) writes one variable power, magnitude(num, den) a
        positive reduced coefficient, and sep joins a term's factors,
        coefficient included.  Signs, the omitted coefficient 1 and
        constant terms are handled here, once for every format.
        """
        if not self._terms:
            return "0"
        den = self._den
        chunks = []
        for mono, coeff in self._ordered().items():
            num, d = _reduced(abs(coeff), den)
            if not mono:
                piece = magnitude(num, d)
            else:
                piece = sep.join(map(power, mono))
                if num != 1 or d != 1:
                    piece = magnitude(num, d) + sep + piece
            chunks.append(" - " + piece if coeff < 0 else " + " + piece)
        text = "".join(chunks)
        # The leading term drops its joiner: " + a" -> "a", " - a" -> "-a".
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_text(self) -> str:
        """Human-readable form, canonical term order, e.g. "C1^2 - 2*C2"."""
        return self._render(_text_power, _text_magnitude, "*")

    def to_latex(self) -> str:
        """LaTeX form, canonical term order, e.g. "C_{1}^{2} - 2 C_{2}"."""
        return self._render(_latex_power, _latex_magnitude, " ")

    def to_json(self) -> str:
        """Serialize to the stable JSON form (see from_json).

        The text is written directly from the ordered terms, in
        json.dumps's default layout: {"vars": [...], "terms": [{"coeff":
        "-5/6", "exps": {"C1": 2}}, ...]}.
        """
        den = self._den
        body = ", ".join(
            f'{{"coeff": "{_text_magnitude(*_reduced(coeff, den))}", '
            f'"exps": {{{", ".join(map(_json_power, mono))}}}}}'
            for mono, coeff in self._ordered().items()
        )
        names = ", ".join(f'"{name}"' for name in self.variables())
        return f'{{"vars": [{names}], "terms": [{body}]}}'

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        """Parse the JSON form: {"vars": [...], "terms": [{"coeff", "exps"}]}.

        Any malformed payload raises ValueError.
        """
        import json  # here, not at the top: only JSON input needs the parser

        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("polynomial JSON is nested too deeply to parse") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("terms"), list):
            raise ValueError("polynomial JSON must be an object with a 'terms' list")
        names = payload.get("vars", [])
        if not isinstance(names, list):
            raise ValueError(f"'vars' must be a list of variable names, got {names!r}")
        for var in names:
            _slot(var)
        pairs = []
        for entry in payload["terms"]:
            if not isinstance(entry, dict) or "coeff" not in entry or "exps" not in entry:
                raise ValueError("each term needs 'coeff' and 'exps' fields")
            coeff = entry["coeff"]
            if isinstance(coeff, str):
                try:
                    coeff = Fraction(coeff)
                except ZeroDivisionError:
                    raise ValueError(f"coefficient {coeff!r} has a zero denominator") from None
            elif not _is_int(coeff):
                raise ValueError(f"coefficient must be a string or an integer, got {coeff!r}")
            pairs.append((entry["exps"], coeff))
        return cls.from_terms(pairs)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"
