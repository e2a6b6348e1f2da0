"""Buchberger's algorithm, normal forms, and quotient dimensions over Q.

Instance sizes in this package are small.  No check runs Buchberger or
computes a normal form: the checks' spanning witness is the paper's rule
at t = 0 (``springer._rule_span_counts``).  Only the tests' cross-checks
call ``buchberger``, ``normal_form`` and ``ideal_equal``, on the whole
lists of I and J up to (n, k) = (10, 5), where I has 221 generators in
11 variables; the benchmark's tracer wraps them by name.  The monomial order is always grevlex with t last (see
``polynomials``).  Inside this module a polynomial is a dict of integer
coefficients, and every basis element is a primitive reducer: content
removed, split once into leading monomial, leading coefficient and tail.
Division is fraction-free and works on one mutable term dict, taking
each next leading term from a heap of its monomials.  Input generators
and S-pairs share one heap under the normal selection strategy, a
generator enters the basis only if it does not reduce to zero, and the
Gebauer-Moeller update prunes pairs and keeps the active basis minimal.
One pass of tail reduction makes the basis reduced; only then are the
elements made monic over Q; the basis keeps that pass's reducers, so
``normal_form`` builds none.

A monomial in N variables is packed into one integer (Bachmann-Schoenemann,
ISSAC 1998): exponent i in bit slot i, BITS bits wide, the total degree in
slot N.  A product is an addition, a | b is ((b | G) - a) & G == G for the
guard bits G (the top bit of every slot), and grevlex is integer order on
deg * 2^(BITS*N) minus the variable slots.  Only S-pair lcms raise degrees
(no division step raises a grevlex leading degree), and packing refuses a
degree of 2^(BITS-1) or more with ValueError, so no slot ever carries.
Terms are packed in ``_integer_terms`` and unpacked only in the MPoly
results of ``buchberger`` and ``normal_form``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, product
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .polynomials import Monomial, MPoly, grevlex_key, monomial_divides

BITS = 32  # width of one packed exponent slot, its guard bit included


def _pack(m: Monomial) -> int:
    m = (*m, sum(m))
    if m[-1] >= 1 << (BITS - 1):
        raise ValueError(f"degree {m[-1]} does not fit a packed monomial")
    return sum(x << BITS * i for i, x in enumerate(m))


def _unpack(e: int, nvars: int) -> Monomial:
    return tuple(e >> BITS * i & (1 << BITS) - 1 for i in range(nvars))


def _guards(nvars: int) -> int:
    """The guard bits of all nvars + 1 slots."""
    return (1 << BITS * (nvars + 1)) // ((1 << BITS) - 1) << (BITS - 1)


def _divides(a: int, b: int, guards: int) -> bool:
    """a | b: no slot of (b | guards) - a borrows from its guard bit."""
    return ((b | guards) - a) & guards == guards


def _flip(e: int, shift: int) -> int:
    """Negate the degree slot (above shift = BITS * nvars): a monomial's heap
    key, smaller for larger monomials in grevlex, and back."""
    return e - 2 * (e >> shift << shift)


def _lcm(a: int, b: int, nvars: int) -> int:
    return _pack(tuple(map(max, _unpack(a, nvars), _unpack(b, nvars))))


# A polynomial as a term dict with packed monomials and integer
# coefficients, and a reducer: a primitive integer polynomial (content
# removed, leading coefficient positive) split into its leading monomial,
# leading coefficient and tail.
Terms = dict[int, int]
Reducer = tuple[int, int, tuple[tuple[int, int], ...]]


def _integer_terms(terms: dict[Monomial, Fraction]) -> tuple[int, Terms]:
    """(d, q) with q = d * terms, packed: the rational terms over one
    denominator."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {_pack(m): c.numerator * (d // c.denominator) for m, c in terms.items()}


def _reducer(terms: Terms, nvars: int) -> Reducer:
    shift = BITS * nvars
    lm = min(terms, key=lambda e: _flip(e, shift))
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    tail = tuple((m, c // content) for m, c in terms.items() if m != lm)
    return lm, terms[lm] // content, tail


def _new_pairs(
    polys: Sequence[Reducer], active: Sequence[int], lh: int, nvars: int
) -> list[tuple[int, int]]:
    """(lcm, a) for the pair of each active element a with the new leading
    monomial lh.  A pair whose lcm does not fit a packed monomial is
    dropped when the two leading monomials are coprime, since the product
    criterion discards it anyway and its lcm could only prune pairs with
    larger lcms, which do not fit either; any other such pair raises
    ValueError from ``_pack``."""
    pairs = []
    for a in active:
        try:
            pairs.append((_lcm(polys[a][0], lh, nvars), a))
        except ValueError:
            if any(map(min, _unpack(polys[a][0], nvars), _unpack(lh, nvars))):
                raise
    return pairs


class GroebnerBasis(NamedTuple):
    """A reduced Groebner basis: monic generators, no generator's monomial
    divisible by another generator's leading monomial.  ``nvars`` is the
    ring's variable count, kept for the zero ideal too; ``reducers`` holds
    the generators' primitive integer reducers, in order."""

    generators: tuple[MPoly, ...]
    nvars: int
    reducers: tuple[Reducer, ...]

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial() for g in self.generators]


def _reduce(p: Terms, reducers: Sequence[Reducer], nvars: int) -> tuple[int, Terms]:
    """Fraction-free full division of the term dict p by the reducers.

    Returns (s, r): s * p - r lies in the ideal of the reducers, s is a
    positive integer, and no monomial of r is divisible by a reducer's
    leading monomial.  The terms of r come in descending grevlex order.
    Each division step scales p by a = lc_g / gcd(lc_g, lc_p) and
    subtracts (lc_p / gcd) times the shifted tail of the reducer g, so p
    stays integral; a remainder term taken at scale s_i is brought to the
    final scale s at the end.

    p is consumed.  Its monomials wait in a heap of their keys (``_flip``,
    inlined here), largest monomial first; a monomial that cancels stays
    in the heap and is skipped when popped."""
    shift, guards = BITS * nvars, _guards(nvars)
    heap = [m - 2 * (m >> shift << shift) for m in p]
    heapify(heap)
    scale = 1
    remainder = []  # (monomial, coefficient, scale when it was taken)
    while heap:
        lm = heappop(heap)
        lm -= 2 * (lm >> shift << shift)
        lc = p.pop(lm, None)
        if lc is None:
            continue  # cancelled after it was pushed
        above = lm | guards
        for glm, glc, tail in reducers:
            if (above - glm) & guards == guards:  # _divides(glm, lm, guards)
                g = gcd(glc, lc)
                if g != glc:
                    a = glc // g
                    scale *= a
                    for m in p:
                        p[m] *= a
                b = lc // g
                quotient = lm - glm
                for m, c in tail:
                    mono = quotient + m
                    old = p.get(mono)
                    if old is None:
                        p[mono] = -b * c
                        heappush(heap, mono - 2 * (mono >> shift << shift))
                    else:
                        new = old - b * c
                        if new:
                            p[mono] = new
                        else:
                            del p[mono]
                break
        else:
            remainder.append((lm, lc, scale))
    return scale, {m: c * (scale // s) for m, c, s in remainder}


def _s_polynomial(f: Reducer, g: Reducer, l: int) -> Terms:
    """The S-polynomial of two reducers whose leading monomials have lcm
    l, scaled to integers: their leading terms cancel by construction, so
    it is a difference of the two tails, each shifted up to l."""
    (lf, cf, tail_f), (lg, cg, tail_g) = f, g
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    shift_f, shift_g = l - lf, l - lg
    s = {shift_f + m: a * c for m, c in tail_f}
    for m, c in tail_g:
        mono = shift_g + m
        c = s.pop(mono, 0) - b * c
        if c:
            s[mono] = c
    return s


def _mpoly(nvars: int, terms: dict[int, Fraction]) -> MPoly:
    return MPoly._make(nvars, {_unpack(m, nvars): c for m, c in terms.items()})


def buchberger(generators: Sequence[MPoly]) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal the generators span.

    Input generators and S-pairs wait in one heap under the normal
    selection strategy: smallest degree (of a generator's leading
    monomial, of a pair's lcm) first, ties broken by grevlex.  A popped
    item is reduced against the active basis, and a nonzero remainder
    joins it through the Gebauer-Moeller update (Becker-Weispfenning's
    UPDATE), which drops:
    - a new pair whose lcm is a proper multiple of another new pair's
      (M); all but one of new pairs with equal lcms, all of them if one
      is coprime (F); then every pair with coprime leading monomials;
    - a queued pair when the new leading monomial divides its lcm and
      differs from the lcms with both of its members (B_k);
    - an active element whose leading monomial the new one divides, so
      the active basis stays minimal.
    One pass of tail reduction then makes it reduced.  The work runs on
    primitive integer polynomials; the returned generators are monic.
    """
    if not generators:
        raise ValueError("empty generator list")
    nvars = generators[0].nvars
    if any(g.nvars != nvars for g in generators):
        raise ValueError("generators live in different polynomial rings")
    shift, guards = BITS * nvars, _guards(nvars)
    polys: list[Reducer] = []  # every element that joined the basis
    active: list[int] = []  # positions in polys of the current minimal basis
    # (grevlex order, serial, i, j, lcm) for the pair (i, j), and
    # (grevlex order, serial, None, terms, lm) for an input generator; the
    # order is minus the heap key, so degree comes first
    queue = []
    for g in generators:
        if g:
            terms = _integer_terms(g.terms)[1]
            lm = min(terms, key=lambda e: _flip(e, shift))
            queue.append((-_flip(lm, shift), len(queue), None, terms, lm))
    heapify(queue)
    serial = len(queue)

    while queue:
        _, _, i, j, l = heappop(queue)
        p = j if i is None else _s_polynomial(polys[i], polys[j], l)
        remainder = _reduce(p, [polys[a] for a in active], nvars)[1]
        if not remainder:
            continue
        h = len(polys)
        polys.append(_reducer(remainder, nvars))
        lh = polys[h][0]
        # the new pairs (lcm, partner, coprime), pruned by M and F
        new = _new_pairs(polys, active, lh, nvars)
        kept = []
        for c, (lcm_a, a) in enumerate(new):
            coprime = lcm_a == polys[a][0] + lh
            later = chain(new[c + 1 :], kept)
            if coprime or not any(_divides(e[0], lcm_a, guards) for e in later):
                kept.append((lcm_a, a, coprime))
        # B_k on the queued pairs; input generators stay queued
        queue = [
            e
            for e in queue
            if e[2] is None
            or not _divides(lh, e[4], guards)
            or _lcm(polys[e[2]][0], lh, nvars) == e[4]
            or _lcm(polys[e[3]][0], lh, nvars) == e[4]
        ]
        for lcm_a, a, coprime in kept:
            if not coprime:
                queue.append((-_flip(lcm_a, shift), serial, a, h, lcm_a))
                serial += 1
        heapify(queue)
        active = [a for a in active if not _divides(lh, polys[a][0], guards)]
        active.append(h)

    # reduce each tail once, smallest leading monomial first: only the
    # smaller elements, already reduced, can divide a tail's monomials,
    # and none divides a leading monomial, so this is the reduced basis
    minimal = sorted((polys[a] for a in active), key=lambda r: -_flip(r[0], shift))
    reduced = []
    for i, (glm, glc, tail) in enumerate(minimal):
        s, rest = _reduce(dict(tail), minimal[:i], nvars)
        glm, glc, tail = minimal[i] = _reducer({glm: s * glc, **rest}, nvars)
        monic = {m: Fraction(c, glc) for m, c in tail}
        reduced.append(_mpoly(nvars, {glm: Fraction(1), **monic}))
    return GroebnerBasis(generators=tuple(reduced), nvars=nvars, reducers=tuple(minimal))


def normal_form(f: MPoly, basis: GroebnerBasis) -> MPoly:
    """The unique remainder of f modulo the Groebner basis; zero exactly
    when f lies in the ideal."""
    if f.nvars != basis.nvars:
        raise ValueError("variable count mismatch with the basis")
    d, p = _integer_terms(f.terms)
    s, rest = _reduce(p, basis.reducers, f.nvars)
    return _mpoly(f.nvars, {m: Fraction(c, s * d) for m, c in rest.items()})


class IdealComparison(NamedTuple):
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
