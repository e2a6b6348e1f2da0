"""Univariate polynomials in the equivariant parameter t, over Q.

A ``TPoly`` keeps its coefficients dense, as localization and the
straightening lifts build and read them.  Its arithmetic, scalar
coercion and printing are ``MPoly``'s in the one variable t: each
operator lifts its operands to that ring, applies ``MPoly``'s operator
and reads the dense tuple back, so Q[t] has no arithmetic of its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .polynomials import MPoly, Scalar, format_poly


class TPoly:
    """Dense polynomial in t with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of t**i.  The tuple never ends in a
    zero, so the zero polynomial is the empty tuple and equality is just
    tuple equality; a constant equals, and hashes as, its scalar.
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
        return hash(self.coeffs) if self.degree > 0 else hash(self.coefficient(0))

    # -- arithmetic and printing, by MPoly in t -------------------------

    def __neg__(self) -> "TPoly":
        return _dense(-_sparse(self))

    def __add__(self, other) -> "TPoly":
        other = _sparse(other)
        return NotImplemented if other is None else _dense(_sparse(self) + other)

    __radd__ = __add__

    def __sub__(self, other) -> "TPoly":
        other = _sparse(other)
        return NotImplemented if other is None else _dense(_sparse(self) - other)

    def __rsub__(self, other) -> "TPoly":
        other = _sparse(other)
        return NotImplemented if other is None else _dense(other - _sparse(self))

    def __mul__(self, other) -> "TPoly":
        other = _sparse(other)
        return NotImplemented if other is None else _dense(_sparse(self) * other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_poly(_sparse(self), ("t",))

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"


def _sparse(value) -> MPoly | Scalar | None:
    """A TPoly as an MPoly in t; an int or Fraction as it is, for MPoly to
    coerce; None for anything else."""
    if isinstance(value, TPoly):
        return MPoly._make(1, {(i,): c for i, c in enumerate(value.coeffs) if c})
    return value if isinstance(value, (int, Fraction)) else None


def _dense(p: MPoly) -> TPoly:
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for (power,), c in p.terms.items():
        coeffs[power] = c
    return TPoly._make(tuple(coeffs))
