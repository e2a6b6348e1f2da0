"""Univariate polynomials in the equivariant parameter t, over Q."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class TPoly:
    """Dense polynomial in t with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of t**i.  The tuple never ends in a
    zero, so the zero polynomial is the empty tuple and equality is just
    tuple equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def _make(cls, coeffs: tuple[Fraction, ...]) -> "TPoly":
        # trusted constructor: Fraction coefficients, the last one nonzero
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls((1,))

    @classmethod
    def term(cls, coeff: Scalar, power: int = 0) -> "TPoly":
        """The polynomial coeff * t**power."""
        if power < 0:
            raise ValueError("power must be non-negative")
        if coeff == 0:
            return cls()
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree in t; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == TPoly.term(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "TPoly":
        return TPoly(-c for c in self.coeffs)

    def __add__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{power}" if mag == 1 else f"{mag}*t^{power}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"


def _coerce(value) -> TPoly | None:
    if isinstance(value, TPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return TPoly.term(value)
    return None
