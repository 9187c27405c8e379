"""Sparse multivariate polynomials with exact rational coefficients.

Variables are plain strings drawn from a fixed alphabet: the Chern-class
slots ``C1``, ``C2``, ... (one per symmetric-function degree), the twist
variable ``T``, the auxiliary univariate ``X`` used by factorial
polynomials, and the symbolic rank ``n``.  A monomial is a tuple of
``(variable, exponent)`` pairs with positive exponents, sorted by the
fixed variable order ``C1 < C2 < ... < T < X < n``; the empty tuple is
the constant monomial.  A polynomial is a finite map from monomials to
nonzero ``fractions.Fraction`` coefficients; the constructors take int or
Fraction coefficients only and reject anything else (a float, say).

All renderers (text, LaTeX, JSON) list terms in graded lexicographic
order, highest total degree first and ties broken by the variable order
above, so equal polynomials always print identically.  Text and LaTeX
share one term loop, which places signs, drops unit coefficients and
writes constants; the two formats differ only in their tokens: how a
variable power and a coefficient are written and what joins the factors.

Evaluation compiles an integer plan once per polynomial and caches it on
the (immutable) polynomial: the common denominator, the occurring
variables, each variable's highest exponent, and every term as an integer
numerator over that denominator with the positions of its variable powers
in a power table.  A point then costs one table of powers x^0..x^top per
variable and one exact sum; int and Fraction values share that loop, and
any other value is rejected.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

TWIST = "T"
AUX = "X"
RANK = "n"

_CHERN_RE = re.compile(r"^C([1-9][0-9]*)$")

Scalar = Union[int, Fraction]
Monomial = tuple


def chern(i: int) -> str:
    """Name of the i-th Chern-class variable, e.g. chern(2) == "C2"."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"Chern index must be a positive integer, got {i!r}")
    return f"C{i}"


_RANK_CACHE: dict = {}


def _var_rank(name: str) -> tuple:
    """Sort rank of a variable in the canonical order; rejects unknown names."""
    rank = _RANK_CACHE.get(name)
    if rank is not None:
        return rank
    m = _CHERN_RE.match(name)
    if m:
        rank = (0, int(m.group(1)))
    elif name == TWIST:
        rank = (1, 0)
    elif name == AUX:
        rank = (2, 0)
    elif name == RANK:
        rank = (3, 0)
    else:
        raise ValueError(f"unknown variable name {name!r}")
    _RANK_CACHE[name] = rank
    return rank


def standard_weight(var: str) -> int:
    """Grading used throughout: Ck has weight k, T and X weight 1, n weight 0."""
    m = _CHERN_RE.match(var)
    if m:
        return int(m.group(1))
    if var in (TWIST, AUX):
        return 1
    if var == RANK:
        return 0
    raise ValueError(f"unknown variable name {var!r}")


def _normalize_monomial(exps: Mapping[str, int]) -> Monomial:
    pairs = []
    for var, e in exps.items():
        _var_rank(var)
        if not isinstance(e, int):
            raise ValueError(f"exponent of {var} must be an integer, got {e!r}")
        if e < 0:
            raise ValueError(f"exponent of {var} must be nonnegative, got {e}")
        if e > 0:
            pairs.append((var, e))
    pairs.sort(key=lambda p: _var_rank(p[0]))
    return tuple(pairs)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # Both inputs are rank-sorted, so merge them directly.
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif _var_rank(va) < _var_rank(vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _exact(coeff) -> Fraction:
    """A coefficient as a Fraction; only int and Fraction values are exact."""
    if isinstance(coeff, Fraction):
        return coeff
    if isinstance(coeff, int):
        return Fraction(coeff)
    raise ValueError(f"coefficient must be an int or Fraction, got {coeff!r}")


def _term_key(mono: Monomial) -> tuple:
    # Graded lex, encoded so that ascending sort gives the canonical
    # descending-degree order: degree negated, then (rank, -exp) pairs.
    deg = sum(e for _, e in mono)
    flat = []
    for var, e in mono:
        flat.append(_var_rank(var))
        flat.append(-e)
    return (-deg, tuple(flat))


# Renderers write each (variable, exponent) pair of a monomial through one
# of these memoised token functions; the pairs are few (variables times
# exponents), so the caches stay small.
@lru_cache(maxsize=4096)
def _text_power(pair: tuple) -> str:
    var, e = pair
    return var if e == 1 else f"{var}^{e}"


@lru_cache(maxsize=4096)
def _latex_power(pair: tuple) -> str:
    var, e = pair
    m = _CHERN_RE.match(var)
    name = f"C_{{{m.group(1)}}}" if m else var
    return name if e == 1 else f"{name}^{{{e}}}"


def _latex_magnitude(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else _exact(coeff)
                if c != 0:
                    clean[mono] = c
        self._terms = clean
        self._plan = None

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({(): _exact(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        _var_rank(name)
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def from_terms(cls, terms: Mapping[Mapping[str, int], Scalar] | Iterable) -> "Polynomial":
        """Build from {exponent-dict: coefficient} pairs (exponents may be 0)."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in items:
            mono = _normalize_monomial(exps)
            acc[mono] = acc.get(mono, Fraction(0)) + _exact(coeff)
        return cls(acc)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Largest monomial degree, with the usual convention deg 0 for 0."""
        if not self._terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self._terms)

    def variables(self) -> list[str]:
        """Variables that actually occur, in canonical order."""
        seen = {var for mono in self._terms for var, _ in mono}
        return sorted(seen, key=_var_rank)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate (monomial, coefficient) in canonical display order."""
        for mono in sorted(self._terms, key=_term_key):
            yield mono, self._terms[mono]

    def coefficient(self, exps: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given exponents (0 if absent)."""
        return self._terms.get(_normalize_monomial(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    def weighted_degrees(self, weight=standard_weight) -> set[int]:
        """Set of weighted degrees occurring among the terms."""
        return {sum(e * weight(v) for v, e in mono) for mono in self._terms}

    def collect(self, var: str) -> dict[int, "Polynomial"]:
        """Group terms by the power of one variable.

        Returns {exponent: coefficient polynomial} with the variable
        removed from the coefficients.
        """
        _var_rank(var)
        groups: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            k = 0
            rest = []
            for v, e in mono:
                if v == var:
                    k = e
                else:
                    rest.append((v, e))
            groups.setdefault(k, {})[tuple(rest)] = coeff
        return {k: Polynomial(t) for k, t in groups.items()}

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._terms == p._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        acc = dict(self._terms)
        for mono, coeff in p._terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero()
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(acc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
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
        """Replace variables by polynomials (or scalars); others pass through."""
        polys: dict[str, Polynomial] = {}
        for var, value in bindings.items():
            _var_rank(var)
            p = self._coerce(value)
            if p is None:
                raise TypeError(f"binding for {var} must be a Polynomial or scalar")
            polys[var] = p
        pow_cache: dict[tuple[str, int], Polynomial] = {}
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            passthrough = tuple((v, e) for v, e in mono if v not in polys)
            factor = None
            for v, e in mono:
                if v not in polys:
                    continue
                key = (v, e)
                if key not in pow_cache:
                    pow_cache[key] = polys[v] ** e
                factor = pow_cache[key] if factor is None else factor * pow_cache[key]
            if factor is None:
                acc[mono] = acc.get(mono, Fraction(0)) + coeff
            else:
                for m2, c2 in factor._terms.items():
                    mono2 = _mono_mul(passthrough, m2)
                    acc[mono2] = acc.get(mono2, Fraction(0)) + coeff * c2
        return Polynomial(acc)

    def common_denominator(self) -> int:
        """Least common multiple of the coefficient denominators (1 for 0)."""
        den = 1
        for c in self._terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den

    def _evaluation_plan(self) -> tuple:
        """(den, variables, top exponents, terms), built once per polynomial.

        Each term is (numerator scaled to the common denominator den,
        indices of its variable powers in the power table).  The table
        lists x^0..x^top for each variable x in turn, so the power x_s^e
        sits at index e plus the sum of (top + 1) over the slots before s.
        """
        if self._plan is None:
            den = self.common_denominator()
            names = self.variables()
            slot = {var: i for i, var in enumerate(names)}
            tops = [0] * len(names)
            for mono in self._terms:
                for var, e in mono:
                    s = slot[var]
                    tops[s] = max(tops[s], e)
            offsets = [0]
            for top in tops:
                offsets.append(offsets[-1] + top + 1)
            terms = tuple(
                (coeff.numerator * (den // coeff.denominator),
                 tuple(offsets[slot[var]] + e for var, e in mono))
                for mono, coeff in self._terms.items()
            )
            self._plan = (den, tuple(names), tuple(tops), terms)
        return self._plan

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a point binding every occurring variable to an int or Fraction."""
        den, names, tops, terms = self._evaluation_plan()
        powers = []
        for var, top in zip(names, tops):
            if var not in point:
                raise ValueError(f"no value for variable {var} in evaluation point")
            x = point[var]
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"value for variable {var} must be an int or Fraction, got {x!r}")
            power = 1
            powers.append(power)
            for _ in range(top):
                power *= x
                powers.append(power)
        # Integer points stay in plain integers until the final division;
        # Fraction points run through the same loop.
        total = 0
        for t, indices in terms:
            for i in indices:
                t *= powers[i]
            total += t
        return Fraction(total, den)

    # -- rendering -------------------------------------------------------

    def _render(self, power, magnitude, sep: str) -> str:
        """Signed terms in canonical order, written in one format's tokens.

        power((var, e)) writes one variable power, magnitude(c) a positive
        coefficient, and sep joins a term's factors, coefficient included.
        Signs, the omitted coefficient 1 and constant terms are handled
        here, once for every format.
        """
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.terms():
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not mono:
                piece = magnitude(mag)
            else:
                piece = sep.join(map(power, mono))
                if mag != 1:
                    piece = magnitude(mag) + sep + piece
            chunks.append(" - " + piece if neg else " + " + piece)
        text = "".join(chunks)
        # The leading term drops its joiner: " + a" -> "a", " - a" -> "-a".
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_text(self) -> str:
        """Human-readable form, canonical term order, e.g. "C1^2 - 2*C2"."""
        return self._render(_text_power, str, "*")

    def to_latex(self) -> str:
        """LaTeX form, canonical term order, e.g. "C_{1}^{2} - 2 C_{2}"."""
        return self._render(_latex_power, _latex_magnitude, " ")

    def to_json(self) -> str:
        """Serialize to the stable JSON form (see from_json)."""
        payload = {
            "vars": self.variables(),
            "terms": [
                {"coeff": str(coeff), "exps": {v: e for v, e in mono}}
                for mono, coeff in self.terms()
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Polynomial":
        """Parse the JSON form: {"vars": [...], "terms": [{"coeff", "exps"}]}."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or "terms" not in payload:
            raise ValueError("polynomial JSON must be an object with a 'terms' list")
        for var in payload.get("vars", []):
            _var_rank(var)
        acc: dict[Monomial, Fraction] = {}
        for entry in payload["terms"]:
            if not isinstance(entry, dict) or "coeff" not in entry or "exps" not in entry:
                raise ValueError("each term needs 'coeff' and 'exps' fields")
            coeff = entry["coeff"]
            if not isinstance(coeff, (str, int)):
                raise ValueError(f"coefficient must be a string or an integer, got {coeff!r}")
            mono = _normalize_monomial(entry["exps"])
            acc[mono] = acc.get(mono, Fraction(0)) + Fraction(coeff)
        return cls(acc)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"
