"""Buchberger's algorithm, normal forms, and quotient dimensions over Q.

Instance sizes in this package are small (at most ten variables; the
largest presentation ideal verified in CI, I at (n, k) = (9, 4), has
136 generators), so the implementation is plain Buchberger with the two
classical pair-pruning criteria and monic intermediate reducers to keep
rational coefficients small.  The monomial order is always grevlex with
t last (see ``polynomials``).  Pairs wait in a heap under the normal
selection strategy (smallest lcm degree first, ties broken by grevlex
on the lcm), keyed once when the pair is created.
Division works on one mutable term dict and takes each next leading
term from a heap of its monomials.
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


# A reducer split for division: its leading monomial, and its other terms
# divided by its leading coefficient.
Reducer = tuple[Monomial, list[tuple[Monomial, Fraction]]]


def _split(g: MPoly) -> Reducer:
    glm = g.leading_monomial()
    tail = [(m, c) for m, c in g.terms.items() if m != glm]
    lc = g.terms[glm]
    if lc != 1:
        tail = [(m, c / lc) for m, c in tail]
    return glm, tail


def _reduce_full(f: MPoly, reducers: Sequence[Reducer]) -> MPoly:
    """Remainder of f on full division by the split reducers: no monomial
    of the result is divisible by any reducer's leading monomial.

    The dividend is one mutable term dict.  Its monomials wait in a heap,
    largest first; a monomial that cancels stays in the heap and is
    skipped when popped.  A division step subtracts a multiple of the
    reducer's tail in place."""
    p = dict(f.terms)
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
    return MPoly._make(f.nvars, remainder)


def _s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    l = monomial_lcm(lf, lg)
    return f.times_monomial(monomial_div(l, lf), 1 / f.leading_coefficient()) - g.times_monomial(
        monomial_div(l, lg), 1 / g.leading_coefficient()
    )


def buchberger(generators: Sequence[MPoly]) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm degree
    first, ties broken by grevlex on the lcm).  A pair is
    skipped when the leading monomials are coprime, or when a third
    basis element divides the pair's lcm and both of its pairs with the
    current pair's members have already been treated.
    """
    if not generators:
        raise ValueError("empty generator list")
    nvars = generators[0].nvars
    basis = []
    for g in generators:
        if g.nvars != nvars:
            raise ValueError("generators live in different polynomial rings")
        if g:
            basis.append(g.monic())
    if not basis:
        # the zero ideal
        return GroebnerBasis(generators=(), nvars=nvars)

    reducers = [_split(g) for g in basis]
    lms = [glm for glm, _ in reducers]
    queue = []  # (lcm degree, grevlex key of the lcm, i, j, lcm), a heap
    pending = set()  # the queued pairs, for the chain criterion

    def add_pairs(new):
        for m in range(new):
            l = monomial_lcm(lms[m], lms[new])
            heappush(queue, (monomial_degree(l), grevlex_key(l), m, new, l))
            pending.add((m, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    while queue:
        _, _, i, j, l = heappop(queue)
        pending.remove((i, j))
        if l == monomial_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        skip = False
        for m in range(len(basis)):
            if m in (i, j) or not monomial_divides(lms[m], l):
                continue
            if (min(i, m), max(i, m)) not in pending and (min(j, m), max(j, m)) not in pending:
                skip = True
                break
        if skip:
            continue
        remainder = _reduce_full(_s_polynomial(basis[i], basis[j]), reducers)
        if remainder:
            remainder = remainder.monic()
            basis.append(remainder)
            reducers.append(_split(remainder))
            lms.append(reducers[-1][0])
            add_pairs(len(basis) - 1)

    return _interreduce(basis, nvars)


def _interreduce(basis: list[MPoly], nvars: int) -> GroebnerBasis:
    # minimalize: drop a generator when another one's leading monomial
    # strictly divides its own (ties broken by position)
    lms = [g.leading_monomial() for g in basis]
    keep = []
    for i in range(len(basis)):
        covered = any(
            j != i
            and monomial_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        )
        if not covered:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    split = [_split(g) for g in minimal]
    # tail-reduce each against the others until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = split[:i] + split[i + 1 :]
            if not others:
                continue
            reduced = _reduce_full(minimal[i], others)
            if reduced != minimal[i]:
                changed = True
                if reduced:
                    minimal[i] = reduced.monic()
                    split[i] = _split(minimal[i])
                else:
                    del minimal[i], split[i]
                    break
    minimal.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(generators=tuple(minimal), nvars=nvars)


def normal_form(f: MPoly, basis: GroebnerBasis) -> MPoly:
    """The unique remainder of f modulo the Groebner basis; zero exactly
    when f lies in the ideal."""
    if f.nvars != basis.nvars:
        raise ValueError("variable count mismatch with the basis")
    if not basis.generators:
        return f
    return _reduce_full(f, [_split(g) for g in basis.generators])


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
