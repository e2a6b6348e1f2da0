"""Buchberger's algorithm, normal forms, and quotient dimensions over Q.

Instance sizes in this package are small (at most ten variables; the
largest presentation ideal verified in CI, I at (n, k) = (9, 4), has
136 generators), so the implementation is plain Buchberger with the two
classical pair-pruning criteria.  The monomial order is always grevlex
with t last (see ``polynomials``).  From the input generators to the
returned basis, every basis element is a monic reducer split once into
its leading monomial and its tail; monic reducers keep rational
coefficients small.  S-polynomials are built from the two tails, and
division works on one mutable term dict, taking each next leading term
from a heap of its monomials.  Pairs wait in a heap under the normal
selection strategy (smallest lcm degree first, ties broken by grevlex on
the lcm), keyed once when the pair is created.  One pass at the end
makes the basis reduced: minimalize, then reduce each tail once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from operator import add, le, sub
from typing import Optional, Sequence

from .polynomials import (
    Monomial,
    MPoly,
    grevlex_descending_key,
    grevlex_key,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no generator's monomial
    divisible by another generator's leading monomial."""

    generators: tuple[MPoly, ...]
    nvars: int  # the ring's variable count, kept for the zero ideal too

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial() for g in self.generators]


# A polynomial as a term dict, and a monic polynomial split for division:
# its leading monomial, and its other terms divided by its leading coefficient.
Terms = dict[Monomial, Fraction]
Reducer = tuple[Monomial, list[tuple[Monomial, Fraction]]]


def _split(terms: Terms) -> Reducer:
    lm = max(terms, key=grevlex_key)
    lc = terms[lm]
    tail = [(m, c) for m, c in terms.items() if m != lm]
    if lc != 1:
        tail = [(m, c / lc) for m, c in tail]
    return lm, tail


def _reduce_full(p: Terms, reducers: Sequence[Reducer]) -> Terms:
    """Remainder of the term dict p on full division by the reducers: no
    monomial of the result is divisible by any reducer's leading
    monomial.  The result's terms come in descending grevlex order.

    p is consumed: division steps subtract multiples of a reducer's tail
    from it in place.  Its monomials wait in a heap, largest first; a
    monomial that cancels stays in the heap and is skipped when popped."""
    heap = [(grevlex_descending_key(m), m) for m in p]
    heapify(heap)
    remainder = {}
    while heap:
        lm = heappop(heap)[1]
        lc = p.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was pushed
        for glm, tail in reducers:
            if all(map(le, glm, lm)):
                quotient = tuple(map(sub, lm, glm))
                for m, c in tail:
                    mono = tuple(map(add, quotient, m))
                    old = p.get(mono)
                    if old is None:
                        p[mono] = -lc * c
                        heappush(heap, (grevlex_descending_key(mono), mono))
                    else:
                        new = old - lc * c
                        if new:
                            p[mono] = new
                        else:
                            del p[mono]
                break
        else:
            remainder[lm] = lc
    return remainder


def _s_polynomial(f: Reducer, g: Reducer) -> Terms:
    """The S-polynomial of two monic reducers.  Their leading terms
    cancel by construction, so it is the difference of the two tails,
    each shifted up to the lcm of the leading monomials."""
    (lf, tail_f), (lg, tail_g) = f, g
    l = monomial_lcm(lf, lg)
    shift_f, shift_g = monomial_div(l, lf), monomial_div(l, lg)
    s = {tuple(map(add, shift_f, m)): c for m, c in tail_f}
    for m, c in tail_g:
        mono = tuple(map(add, shift_g, m))
        c = s.pop(mono, 0) - c
        if c:
            s[mono] = c
    return s


def buchberger(generators: Sequence[MPoly]) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm degree
    first, ties broken by grevlex on the lcm).  A pair is
    skipped when the leading monomials are coprime, or when a third
    basis element divides the pair's lcm and both of its pairs with the
    current pair's members have already been treated.  One pass of
    interreduction then makes the basis reduced.
    """
    if not generators:
        raise ValueError("empty generator list")
    nvars = generators[0].nvars
    if any(g.nvars != nvars for g in generators):
        raise ValueError("generators live in different polynomial rings")
    basis = [_split(g.terms) for g in generators if g]
    queue = []  # (lcm degree, grevlex key of the lcm, i, j, lcm), a heap
    pending = set()  # the queued pairs, for the chain criterion

    def add_pairs(new):
        lm = basis[new][0]
        for m in range(new):
            l = monomial_lcm(basis[m][0], lm)
            heappush(queue, (monomial_degree(l), grevlex_key(l), m, new, l))
            pending.add((m, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    while queue:
        _, _, i, j, l = heappop(queue)
        pending.remove((i, j))
        if l == monomial_mul(basis[i][0], basis[j][0]):
            continue  # coprime leading monomials
        if any(
            m not in (i, j)
            and monomial_divides(glm, l)
            and (min(i, m), max(i, m)) not in pending
            and (min(j, m), max(j, m)) not in pending
            for m, (glm, _) in enumerate(basis)
        ):
            continue  # the chain criterion
        remainder = _reduce_full(_s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            basis.append(_split(remainder))
            add_pairs(len(basis) - 1)

    # minimalize: drop an element when another one's leading monomial
    # divides its own, keeping the first of equal leading monomials
    lms = [glm for glm, _ in basis]
    minimal = [
        basis[i]
        for i, lm in enumerate(lms)
        if not any(
            j != i and monomial_divides(d, lm) and (d != lm or j < i) for j, d in enumerate(lms)
        )
    ]
    minimal.sort(key=lambda r: grevlex_key(r[0]))
    # reduce each tail once, smallest leading monomial first: only the
    # smaller elements, already reduced, can divide a tail's monomials,
    # and none divides a leading monomial, so this is the reduced basis
    reduced = []
    for i, (glm, tail) in enumerate(minimal):
        rest = _reduce_full(dict(tail), minimal[:i])
        minimal[i] = (glm, list(rest.items()))
        reduced.append(MPoly._make(nvars, {glm: Fraction(1), **rest}))
    return GroebnerBasis(generators=tuple(reduced), nvars=nvars)


def normal_form(f: MPoly, basis: GroebnerBasis) -> MPoly:
    """The unique remainder of f modulo the Groebner basis; zero exactly
    when f lies in the ideal."""
    if f.nvars != basis.nvars:
        raise ValueError("variable count mismatch with the basis")
    reducers = [_split(g.terms) for g in basis.generators]
    return MPoly._make(f.nvars, _reduce_full(dict(f.terms), reducers))


@dataclass(frozen=True)
class IdealComparison:
    equal: bool
    witness: Optional[MPoly] = None
    witness_side: Optional[str] = None  # "left" or "right": which input owns the witness


def ideal_equal(gens_a: Sequence[MPoly], gens_b: Sequence[MPoly]) -> IdealComparison:
    """Decide whether two generator lists span the same ideal.

    On failure the witness is a generator of one side with a nonzero
    normal form against the other side's Groebner basis.
    """
    gb_a = buchberger(gens_a)
    gb_b = buchberger(gens_b)
    for g in gens_a:
        if g and normal_form(g, gb_b):
            return IdealComparison(equal=False, witness=g, witness_side="left")
    for g in gens_b:
        if g and normal_form(g, gb_a):
            return IdealComparison(equal=False, witness=g, witness_side="right")
    return IdealComparison(equal=True)


def quotient_dimension(basis: GroebnerBasis) -> tuple[Optional[int], list[Monomial]]:
    """Dimension of the quotient ring as a Q-vector space, with the list
    of standard monomials (those not divisible by any leading monomial
    of the Groebner basis).  Returns (None, []) when the quotient is
    infinite-dimensional."""
    lms = basis.leading_monomials()
    if any(sum(lm) == 0 for lm in lms):
        return 0, []  # the unit ideal
    # finite iff every variable appears as a pure power among the leading monomials
    bounds = []
    for v in range(basis.nvars):
        pure = [
            lm[v]
            for lm in lms
            if lm[v] > 0 and all(e == 0 for i, e in enumerate(lm) if i != v)
        ]
        if not pure:
            return None, []
        bounds.append(min(pure))
    standard = []
    for mono in product(*(range(b) for b in bounds)):
        if not any(monomial_divides(lm, mono) for lm in lms):
            standard.append(mono)
    standard.sort(key=grevlex_key)
    return len(standard), standard
