"""Sparse multivariate polynomials over Q, ordered by grevlex.

Monomials are exponent tuples of a fixed length.  By convention the
equivariant contexts use n+1 slots, positions 0..n-1 for x1..xn and the
last position for t; ordinary (non-equivariant) ideals simply use n
slots.  All variables have weight one, so every generator handled by
this package is homogeneous in the total degree.

The one monomial order is grevlex with x1 > x2 > ... > xn > t.  The
order decides which monomials are standard for a Groebner basis; the
tests find the standard monomials of J to be the tableau monomials
under grevlex, a cross-check of the kernel certificate in ``springer``,
which needs no monomial order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

# the unit coefficient every generator term shares; Fractions are immutable
_ONE = Fraction(1)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def grevlex_key(m: Monomial) -> tuple:
    """Sort key for grevlex with x1 > x2 > ... > t; a larger key means a
    larger monomial: higher total degree, then the smaller exponent in
    the last variable where two monomials differ."""
    return (sum(m), tuple(-e for e in reversed(m)))


class MPoly:
    """A polynomial stored as a map from exponent tuple to Fraction.

    Instances are immutable by convention: no operation mutates its
    arguments, and stored coefficients are never zero.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        self.nvars = nvars
        self.terms: dict[Monomial, Fraction] = clean

    @classmethod
    def _make(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "MPoly":
        # trusted constructor: terms already normalized
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "MPoly":
        c = Fraction(value)
        if not c:
            return cls.zero(nvars)
        return cls._make(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "MPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, position: int) -> "MPoly":
        """The variable at a 0-based position."""
        if not 0 <= position < nvars:
            raise ValueError(f"variable position {position} out of range")
        mono = tuple(1 if i == position else 0 for i in range(nvars))
        return cls._make(nvars, {mono: _ONE})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: Scalar = _ONE) -> "MPoly":
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
        if not c:
            return cls.zero(len(mono))
        return cls._make(len(mono), {tuple(mono): c})

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_components(self) -> dict[int, "MPoly"]:
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            parts.setdefault(sum(mono), {})[mono] = c
        return {d: MPoly._make(self.nvars, t) for d, t in sorted(parts.items())}

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __neg__(self) -> "MPoly":
        return MPoly._make(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return MPoly._make(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MPoly.zero(self.nvars)
            return MPoly._make(self.nvars, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = monomial_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return MPoly._make(self.nvars, out)

    __rmul__ = __mul__

    def times_monomial(self, mono: Monomial, coeff: Scalar = 1) -> "MPoly":
        """Multiply by coeff * x**mono without building an intermediate MPoly."""
        c = Fraction(coeff)
        if not c:
            return MPoly.zero(self.nvars)
        return MPoly._make(
            self.nvars, {monomial_mul(m, mono): v * c for m, v in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "MPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MPoly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sorted_terms(self):
        """Terms as (monomial, coefficient) pairs, descending in grevlex."""
        return [
            (m, self.terms[m])
            for m in sorted(self.terms, key=grevlex_key, reverse=True)
        ]

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {dict(self.terms)!r})"


def elementary_symmetric(nvars: int, degree: int, positions: Iterable[int]) -> MPoly:
    """The elementary symmetric polynomial of the given degree in the
    variables at the given 0-based positions.

    Degree zero gives 1; a degree exceeding the number of chosen
    variables gives the zero polynomial (there is no squarefree monomial
    of that degree).
    """
    pos = sorted(set(positions))
    if any(not 0 <= p < nvars for p in pos):
        raise ValueError("variable position out of range")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return MPoly.one(nvars)
    if degree > len(pos):
        return MPoly.zero(nvars)
    terms: dict[Monomial, Fraction] = {}
    for chosen in combinations(pos, degree):
        mono = [0] * nvars
        for p in chosen:
            mono[p] = 1
        terms[tuple(mono)] = _ONE
    return MPoly._make(nvars, terms)


# -- text format -----------------------------------------------------------
#
# Grammar: terms joined by '+'/'-'; a term is a '*'-separated product of an
# optional rational coefficient ("5", "3/2") and powers "x1^2", "t" (an
# exponent of 1 may be omitted).  Canonical printing sorts terms
# descending in grevlex, e.g. "3/2*x1^2*t - x2*x3 + 5*t^2".


def variable_names(n_x: int, include_t: bool = True) -> tuple[str, ...]:
    """Canonical variable names x1..xn, optionally followed by t."""
    names = tuple(f"x{i}" for i in range(1, n_x + 1))
    return names + ("t",) if include_t else names


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the failure position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(
                f"unexpected character {stripped[0]!r}", pos + (len(text[pos:]) - len(stripped))
            )
        start = m.start(m.lastindex)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), start))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), start))
        else:
            tokens.append(("op", m.group(3), start))
        pos = m.end()
    return tokens


def _integer(value: str, pos: int) -> int:
    try:
        return int(value)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise PolyParseError(f"integer of {len(value)} digits is too long", pos) from None


def parse_poly(text: str, names: Iterable[str]) -> MPoly:
    """Parse polynomial text over the given variable names."""
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)

    terms: dict[Monomial, Fraction] = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(text))

    while i < len(tokens):
        sign = 1
        kind, value, pos = peek()
        while kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            i += 1
            kind, value, pos = peek()
        coeff = Fraction(sign)
        mono = [0] * nvars
        expect_factor = True
        while expect_factor:
            kind, value, pos = peek()
            if kind == "int":
                i += 1
                num = _integer(value, pos)
                kind2, value2, _ = peek()
                if kind2 == "op" and value2 == "/":
                    i += 1
                    kind3, value3, pos3 = peek()
                    if kind3 != "int":
                        raise PolyParseError("expected denominator", pos3)
                    i += 1
                    den = _integer(value3, pos3)
                    if den == 0:
                        raise PolyParseError("zero denominator", pos3)
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif kind == "name":
                if value not in index:
                    raise PolyParseError(f"unknown variable {value!r}", pos)
                i += 1
                exp = 1
                kind2, value2, _ = peek()
                if kind2 == "op" and value2 == "^":
                    i += 1
                    kind3, value3, pos3 = peek()
                    if kind3 != "int":
                        raise PolyParseError("expected exponent", pos3)
                    i += 1
                    exp = _integer(value3, pos3)
                mono[index[value]] += exp
            else:
                raise PolyParseError("expected a coefficient or variable", pos)
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                i += 1
            else:
                expect_factor = False
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + coeff
        kind, value, pos = peek()
        if kind is not None and not (kind == "op" and value in "+-"):
            raise PolyParseError("expected '+' or '-'", pos)
    return MPoly._make(nvars, {m: c for m, c in terms.items() if c})


def format_poly(p: MPoly, names: Iterable[str]) -> str:
    """Canonical text for a polynomial: terms descending in grevlex."""
    names = tuple(names)
    if len(names) != p.nvars:
        raise ValueError(f"expected {p.nvars} variable names, got {len(names)}")
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
