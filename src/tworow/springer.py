"""Fixed points, presentation ideals, localization, and straightening for
two-row Springer varieties.

A context (n, k) fixes the nilpotent shape: two Jordan blocks of sizes
n - k >= k.  The circle acting is the subgroup diag(g, g^2, ..., g^n) of
the diagonal torus, so restriction to a fixed point w sends the degree
generator x_i to w(i) * t and the equivariant parameter t to itself.

Three presentation ideals are constructed:

* ``equivariant_ideal``: in Q[x1..xn, t], the linear sum relation, n
  quadratic and C(n, k+1) product relations, each a product of linear
  forms (``_generator_forms``); the checks read only those factors.
* ``ordinary_ideal``: the t = 0 shadow J in Q[x1..xn], generated by J0 =
  (e1, x_1^2, ..., x_n^2) and all squarefree (k+1)-fold products; the
  checks compute no Groebner basis: the paper's straightening rule at
  t = 0 shows the tableau monomials span Q[x]/J (``_rule_span_counts``).
* ``tanisaki_ideal``: the classical elementary-symmetric presentation of
  the same ordinary cohomology ring.

Straightening rewrites any polynomial, modulo the equivariant ideal, as
a Q[t]-combination of the squarefree monomials indexed by standard
tableaux; it is implemented twice, once by exact linear algebra against
the localized images of the basis (``straighten_by_solve``) and once by
the inductive rewriting procedure (``straighten_by_rewrite``), kept as
cross-checks of each other.  ``verify`` proves the rewrite route's
multiplication tables against localization instead, with no inverse
(``table_monomials``, ``straightening_mismatches``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from itertools import chain, combinations, repeat
from math import comb, lcm, prod
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Optional

from .linalg import ScaledInverse, rational_inverse, solve_rational
from .polynomials import Monomial, MPoly, elementary_symmetric, monomial_divides
from .tableaux import (
    TwoRowFilling,
    enumerate_standard_tableaux,
    filling_from_monomial,
    is_standard,
    monomial_from_filling,
)
from .tpoly import TPoly


class ConsistencyError(RuntimeError):
    """An exact computation contradicted something the theory guarantees."""


class SpringerContext(namedtuple("SpringerContext", "n k")):
    """The pair (n, k) with 0 <= k <= n/2 and n >= 1.  ``cache``, a dict set
    per object, is no field: ``==``, ``hash``, ``repr``, pickles and copies ignore it."""

    def __new__(cls, n: int, k: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if not 0 <= k or 2 * k > n:
            raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
        self = super().__new__(cls, n, k)
        self.cache = {}
        return self

    @classmethod
    def _make(cls, fields):  # so that _replace validates and makes its own cache
        return cls(*fields)

    def __reduce__(self):  # pickle and copy as (n, k), each copy with its own cache
        return type(self), tuple(self)

    @property
    def nvars(self) -> int:
        """Variables of the equivariant ring: x1..xn and t."""
        return self.n + 1

    def x(self, i: int) -> MPoly:
        """The generator x_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return MPoly.variable(self.nvars, i - 1)

    def t(self) -> MPoly:
        return MPoly.variable(self.nvars, self.n)


def _per_context(fn):
    """Cache fn(ctx) in ``ctx.cache``; racing threads all get the first value stored."""

    @wraps(fn)
    def cached(ctx: SpringerContext):
        return ctx.cache[fn] if fn in ctx.cache else ctx.cache.setdefault(fn, fn(ctx))

    return cached


class FixedPoint(NamedTuple):
    """A circle-fixed flag, recorded as the index list ell and the
    one-line permutation w it determines."""

    ell: tuple[int, ...]
    w: tuple[int, ...]


def build_fixed_point(ctx: SpringerContext, ell: Iterable[int]) -> FixedPoint:
    """The fixed point for a strictly increasing index list of length k:
    position ell_j holds n - k + j, and the remaining positions hold
    1..n-k in increasing order."""
    ell = tuple(ell)
    if len(ell) != ctx.k:
        raise ValueError(f"expected {ctx.k} indices, got {len(ell)}")
    if any(not 1 <= e <= ctx.n for e in ell):
        raise ValueError(f"indices must lie in 1..{ctx.n}")
    if any(ell[i] >= ell[i + 1] for i in range(len(ell) - 1)):
        raise ValueError("indices must be strictly increasing")
    w = [0] * ctx.n
    for j, pos in enumerate(ell, start=1):
        w[pos - 1] = ctx.n - ctx.k + j
    small = iter(range(1, ctx.n - ctx.k + 1))
    return FixedPoint(ell=ell, w=tuple(v or next(small) for v in w))


@_per_context
def fixed_points(ctx: SpringerContext) -> tuple[FixedPoint, ...]:
    """All C(n, k) fixed points, ordered lexicographically by ell."""
    subsets = combinations(range(1, ctx.n + 1), ctx.k)
    return tuple(build_fixed_point(ctx, ell) for ell in subsets)


def fixed_points_bruteforce(ctx: SpringerContext) -> list[tuple[int, ...]]:
    """All permutations whose coordinate flag the nilpotent preserves,
    found without ``build_fixed_point`` by a depth-first search over
    prefixes.  The nilpotent kills e_1 and e_{n-k+1} and shifts every
    other e_v down to e_{v-1}, so a coordinate flag survives iff each such
    v comes after v - 1: a prefix extends by v only when v is 1 or n-k+1
    or v - 1 is already placed.  Every prefix the search keeps extends to
    a permutation, so it visits about C(n, k) leaves, not n!."""
    n, free = ctx.n, (1, ctx.n - ctx.k + 1)
    found = []
    prefix: list[int] = []
    placed = [False] * (n + 1)

    def extend() -> None:
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            if not placed[v] and (v in free or placed[v - 1]):
                placed[v] = True
                prefix.append(v)
                extend()
                prefix.pop()
                placed[v] = False

    extend()
    return sorted(found)


# -- presentation ideals -----------------------------------------------------


class IdealPresentation(NamedTuple):
    """A named generator list; ``labels`` parallels ``generators``."""

    name: str  # "I", "J", or "tanisaki"
    generators: tuple[MPoly, ...]
    labels: tuple[str, ...]


def _linear_product(forms: Iterable[Mapping[int, int]], base: Monomial) -> dict[Monomial, int]:
    """The product of linear forms, each {slot: integer coefficient} over
    x1..xn and t, times x^base, as integer terms: expanded one factor at a
    time, zero terms dropped.  Every product of linear forms in I's
    generators and in the rewriting rules is built here."""
    terms = {tuple(base): 1}
    for form in forms:
        expanded: dict[Monomial, int] = {}
        for mono, c in terms.items():
            for p, a in form.items():
                key = list(mono)
                key[p] += 1
                key = tuple(key)
                expanded[key] = expanded.get(key, 0) + c * a
        terms = {m: c for m, c in expanded.items() if c}
    return terms


def _pair_forms(ctx: SpringerContext, i: int) -> list[dict[int, int]]:
    """The two factors of the quadratic relation tying x_i to x_{i-1},
    x_i + x_{i-1} - (n-k+i) t and x_i - x_{i-1} - t, with x_0 = 0."""
    x, t = i - 1, ctx.n
    plus, minus = {x: 1, t: -(ctx.n - ctx.k + i)}, {x: 1, t: -1}
    if i > 1:
        plus[x - 1], minus[x - 1] = 1, -1
    return [plus, minus]


def _product_forms(ctx: SpringerContext, indices: tuple[int, ...]) -> list[dict[int, int]]:
    """The factors x_{i_j} - (i_j - j) t of the product relation on the
    chosen indices, j counting from zero."""
    return [{idx - 1: 1, ctx.n: j - idx} for j, idx in enumerate(indices)]


def _linear_form(ctx: SpringerContext) -> dict[int, int]:
    """I's linear generator e1 - n(n+1)/2 t as {slot: coefficient}, built
    per call: its one definition, which ``_generator_forms`` and the
    rewrite step's non-standard rule both read."""
    n = ctx.n
    return {**dict.fromkeys(range(n), 1), n: -(n * (n + 1) // 2)}


def _generator_forms(ctx: SpringerContext) -> list[tuple[str, list[dict[int, int]]]]:
    """I's generators as the paper writes them, each a product of linear
    forms {slot: integer coefficient} over x1..xn and t: (label, forms)
    for the linear relation, the n quadratic relations and the C(n, k+1)
    product relations, in that order.  The one source of I: every
    certificate reads these factors, every rewriting rule is built from
    them, and only ``equivariant_ideal`` expands them.  Rebuilt per call,
    so no caller shares its dicts."""
    n = ctx.n
    pairs = [("linear", [_linear_form(ctx)])]
    pairs.extend((f"quadratic i={i}", _pair_forms(ctx, i)) for i in range(1, n + 1))
    pairs.extend(
        ("product i=" + ",".join(map(str, subset)), _product_forms(ctx, subset))
        for subset in combinations(range(1, n + 1), ctx.k + 1)
    )
    return pairs


def equivariant_ideal(ctx: SpringerContext) -> IdealPresentation:
    """The equivariant presentation ideal I in Q[x1..xn, t]: the products
    of ``_generator_forms``, expanded by ``_linear_product``.  Only the
    ``generators`` listing and the tests read it; no check expands I."""
    labels, factors = zip(*_generator_forms(ctx))
    base = (0,) * ctx.nvars
    generators = tuple(MPoly(ctx.nvars, _linear_product(forms, base)) for forms in factors)
    return IdealPresentation(name="I", generators=generators, labels=labels)


@_per_context
def ordinary_ideal(ctx: SpringerContext) -> IdealPresentation:
    """The ordinary presentation ideal J in Q[x1..xn]."""
    n = ctx.n
    gens = [elementary_symmetric(n, 1, range(n))]
    labels = ["linear"]
    for i in range(1, n + 1):
        gens.append(MPoly.from_monomial(tuple(2 * (p == i - 1) for p in range(n))))
        labels.append(f"square i={i}")
    for subset in combinations(range(n), ctx.k + 1):
        gens.append(elementary_symmetric(n, ctx.k + 1, subset))
        labels.append("product i=" + ",".join(str(p + 1) for p in subset))
    return IdealPresentation(name="J", generators=tuple(gens), labels=tuple(labels))


def tanisaki_ideal(ctx: SpringerContext) -> IdealPresentation:
    """Tanisaki's elementary-symmetric presentation ideal for the two-row
    shape: e1 of everything, e2 of every (n-1)-subset, and e_{k+1} of
    every (k+1)-subset."""
    n = ctx.n
    gens = [elementary_symmetric(n, 1, range(n))]
    labels = ["e1"]
    for subset in combinations(range(n), n - 1):
        gens.append(elementary_symmetric(n, 2, subset))
        labels.append("e2 i=" + ",".join(str(p + 1) for p in subset))
    for subset in combinations(range(n), ctx.k + 1):
        gens.append(elementary_symmetric(n, ctx.k + 1, subset))
        labels.append(f"e{ctx.k + 1} i=" + ",".join(str(p + 1) for p in subset))
    return IdealPresentation(name="tanisaki", generators=tuple(gens), labels=tuple(labels))


def ideal_by_name(ctx: SpringerContext, name: str) -> IdealPresentation:
    table = {"I": equivariant_ideal, "J": ordinary_ideal, "tanisaki": tanisaki_ideal}
    if name not in table:
        raise ValueError(f"unknown ideal {name!r}; expected I, J, or tanisaki")
    return table[name](ctx)


@_per_context
def _j_is_j0_plus_products(ctx: SpringerContext) -> bool:
    """J's list is J0 = (e1, x_1^2, ..., x_n^2), built here and not read
    from ``ordinary_ideal``, followed by every squarefree (k+1)-product.
    A monomial of degree k + 1 is squarefree or a multiple of a square, so
    then J = J0 + m^(k+1), m = (x_1, ..., x_n).  Cached per context, for
    ``kernel_ideal_comparisons`` and ``ordinary_presentation_check``."""
    n = ctx.n
    squares = (MPoly.from_monomial(tuple(2 * (p == i) for p in range(n))) for i in range(n))
    subsets = combinations(range(n), ctx.k + 1)
    products = (MPoly.from_monomial(tuple(int(p in s) for p in range(n))) for s in subsets)
    expected = [elementary_symmetric(n, 1, range(n)), *squares, *products]
    return list(ordinary_ideal(ctx).generators) == expected


def _first_bad_column(mask: int, n: int) -> int:
    """The first column, 1-based, of the two-row filling with bottom row
    the set bits of mask (the support of a squarefree monomial, as
    ``filling_from_monomial`` reads it) whose top entry exceeds its bottom
    one; 0 for a standard filling.  A ballot scan: the b-th bottom entry's
    column is bad when fewer than b top entries precede it.  The lift
    checks its keys by ``is_standard`` instead."""
    tops = bottoms = 0
    for p in range(n):
        if mask >> p & 1:
            bottoms += 1
            if tops < bottoms:
                return bottoms
        else:
            tops += 1
    return 0


def _rule_split(mask: int, j: int, n: int) -> tuple[int, int]:
    """The bit sets (head, tail) of the paper's rule in column j >= 1 on
    x_S, S the set bits of mask: head the first j - 1 top entries, tail the
    bottom entries past column j.  The rewrite step and the t = 0 witness
    both split the linear relation as head + rest here."""
    tops = later = ~mask & ((1 << n) - 1)
    tail = mask
    for _ in range(j - 1):
        later &= later - 1  # drop the lowest top entry
    for _ in range(j):
        tail &= tail - 1  # drop the lowest bottom entry
    return tops ^ later, tail


def _rule_at_zero(mask: int, j: int, n: int, order: Mapping[int, int]) -> bool:
    """Whether the paper's non-standard rule at t = 0, in column j, writes
    x_S, S the set bits of mask, as a combination of later squarefree
    monomials of its degree modulo J0.

    With (head, tail) from ``_rule_split``, the rule's relation
    rest^j - (-head)^j, rest = e1 - head, times x_tail lies in J0.  Modulo
    the squares, (-head)^j vanishes when head has j - 1 variables, a
    premise checked here, and rest^j x_tail is j! e_j(rest minus tail)
    x_tail.  So x_S must occur there exactly once, and every other term
    must be later than S: a key of ``order`` (a subset of S's size) whose
    first bad column is 0 or past S's."""
    head, tail = _rule_split(mask, j, n)
    if not 1 <= j <= mask.bit_count() or head.bit_count() != j - 1:
        return False
    free = [1 << p for p in range(n) if not (head | tail) >> p & 1]
    own, hits = order[mask], 0
    for chosen in combinations(free, j):
        term = tail | sum(chosen)
        if term == mask:
            hits += 1
        elif 0 < order.get(term, 1) <= own:  # a term not in order fails too
            return False
    return hits == 1


@_per_context
def _rule_span_counts(ctx: SpringerContext) -> tuple[Optional[int], ...]:
    """Per degree d = 0..k, the number of standard d-subsets when the
    paper's rule at t = 0 (``_rule_at_zero``) reduces every non-standard
    d-subset, at its first bad column, to later ones; None where it fails.
    Squarefree monomials span Q[x]_d modulo J0, so by induction on
    d - (first bad column) the standard ones span (Q[x]/J0)_d, and the
    count bounds its dimension from above.  Kept per context for kernel-ideal and ordinary."""
    n, counts = ctx.n, []
    for d in range(ctx.k + 1):
        masks = (sum(1 << p for p in s) for s in combinations(range(n), d))
        order = {mask: _first_bad_column(mask, n) for mask in masks}
        spans = all(_rule_at_zero(mask, j, n, order) for mask, j in order.items() if j)
        counts.append(sum(not j for j in order.values()) if spans else None)
    return tuple(counts)


def _graded_dimensions(n: int, k: int) -> tuple[int, ...]:
    """C(n, d) - C(n, d - 1) for d = 0..k: the Betti numbers of the
    Springer fiber, and a lower bound on dim (Q[x]/J0)_d."""
    return tuple(comb(n, d) - (d and comb(n, d - 1)) for d in range(k + 1))


@_per_context
def _j_quotient_dimension(ctx: SpringerContext) -> Optional[int]:
    """dim Q[x]/J, or None when J's list is of another shape
    (``_j_is_j0_plus_products``) or, in some degree d <= k, the lower
    bound C(n, d) - C(n, d - 1) differs from the upper bound of the
    context's ``_rule_span_counts`` (step 3 of ``kernel_ideal_comparisons``)."""
    counts = _rule_span_counts(ctx)
    if not _j_is_j0_plus_products(ctx) or counts != _graded_dimensions(ctx.n, ctx.k):
        return None
    return sum(counts)


# -- localization ------------------------------------------------------------


def localize(f: MPoly, w: FixedPoint) -> TPoly:
    """Restrict a class to a fixed point: x_i maps to w(i) * t, t to t.
    Homogeneous degree-d input lands on a multiple of t^d."""
    if f.nvars != len(w.w) + 1:
        raise ValueError(f"expected a polynomial in {len(w.w) + 1} variables, got {f.nvars}")
    coeffs = [Fraction(0)] * (f.total_degree() + 1)
    for mono, c in f.terms.items():
        coeffs[sum(mono)] += c * prod(map(pow, w.w, mono))  # w.w stops before t
    return TPoly(coeffs)


def localize_all(f: MPoly, ctx: SpringerContext) -> dict[FixedPoint, TPoly]:
    """The full localized class: one Q[t] value per fixed point."""
    return {w: localize(f, w) for w in fixed_points(ctx)}


class RelationCheck(NamedTuple):
    generators_checked: int
    fixed_points_checked: int
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@_per_context
def _value_columns(ctx: SpringerContext) -> tuple[tuple[int, ...], ...]:
    """Column i holds w(i + 1) at every fixed point, in the order of
    ``fixed_points``: the values of x_{i+1} at t = 1.  Built once per
    context, for the relations, the basis matrix and both straightening
    comparisons."""
    return tuple(zip(*(w.w for w in fixed_points(ctx))))


def _monomial_values(
    columns: tuple[tuple[int, ...], ...], alpha: tuple[int, ...]
) -> tuple[int, ...]:
    """The integer values prod w(i)^alpha_i of the x-monomial with
    exponents alpha over x1..xn, one per fixed point, from the columns
    ``_value_columns(ctx)`` that each caller reads once: one elementwise
    power per variable in the support and one elementwise product per
    further variable, column by column."""
    values = None
    for column, e in zip(columns, alpha):
        if e:
            if e > 1:
                column = map(pow, column, repeat(e))
            values = column if values is None else map(mul, values, column)
    return (1,) * len(columns[0]) if values is None else tuple(values)


@_per_context
def verify_relations(ctx: SpringerContext) -> RelationCheck:
    """Every generator of the equivariant ideal must localize to zero at
    every fixed point; failures are reported, never raised.  Localization
    is a ring map, and each generator a product of linear forms
    (``_generator_forms``), so homogeneous: it localizes to zero at w
    exactly when a factor vanishes at x = w, t = 1.  Each distinct form,
    keyed by every coefficient, t's too, is evaluated once into the bit set
    of points where it vanishes; a generator fails outside the union of its
    factors' sets.  Nothing is multiplied.  Computed once per context and
    shared by the ``relations`` and ``kernel-ideal`` checks."""
    points = fixed_points(ctx)
    columns = _value_columns(ctx) + ((1,) * len(points),)  # t = 1
    pairs = _generator_forms(ctx)
    vanishing: dict[frozenset, int] = {}
    everywhere = (1 << len(points)) - 1
    failures = []
    for label, forms in pairs:
        zeros = 0
        for form in forms:
            key = frozenset(form.items())
            if key not in vanishing:
                values = repeat(0)  # the form's value at each point, slot by slot
                for slot, a in form.items():
                    values = map(add, values, map(mul, repeat(a), columns[slot]))
                vanishing[key] = sum(1 << i for i, value in enumerate(values) if not value)
            zeros |= vanishing[key]
        if zeros != everywhere:
            failures.extend((label, w.ell) for i, w in enumerate(points) if not zeros >> i & 1)
    return RelationCheck(
        generators_checked=len(pairs),
        fixed_points_checked=len(points),
        failures=tuple(failures),
    )


# -- the square rewriting rule -----------------------------------------------


@_per_context
def _square_rules(ctx: SpringerContext) -> tuple[tuple[tuple[Monomial, int], ...], ...]:
    """What x_i^2 equals modulo the ideal, as integer terms, for i = 1..n,
    built once per context: entry i - 1 is
    (n-k+i+1) t x_i + t (x_1 + ... + x_{i-1}) - ((n-k+1) + ... + (n-k+i)) t^2,
    with its t^2 term last."""
    n, k = ctx.n, ctx.k
    t_times = [tuple((q == p) + (q == n) for q in range(ctx.nvars)) for p in range(ctx.nvars)]
    return tuple(
        ((t_times[i - 1], n - k + i + 1), *((t_times[p], 1) for p in range(i - 1)),
         (t_times[n], -sum(range(n - k + 1, n - k + i + 1))))
        for i in range(1, n + 1)
    )


def verify_square_reduction(ctx: SpringerContext) -> bool:
    """The quadratic generators telescope: the i-th one equals
    (x_i^2 - rhs_i) - (x_{i-1}^2 - rhs_{i-1}) as an exact polynomial
    identity, with the i = 0 term zero.  This is what makes the square
    rewriting rule a consequence of the ideal.  Both sides are integer
    terms: the product expansion against the closed forms of
    ``_square_rules``."""
    previous: dict[Monomial, int] = {}  # x_0^2 - rhs_0
    for i, rule in enumerate(_square_rules(ctx), 1):
        square = tuple(2 * (p == i - 1) for p in range(ctx.nvars))
        current = _sum_terms((1, {square: 1}), (-1, dict(rule)))
        relation = _linear_product(_pair_forms(ctx, i), (0,) * ctx.nvars)
        if relation != _sum_terms((1, current), (-1, previous)):
            return False
        previous = current
    return True


# -- the straightening basis -------------------------------------------------


@_per_context
def standard_monomial_basis(ctx: SpringerContext) -> tuple[TwoRowFilling, ...]:
    """Standard tableaux with bottom rows of size 0..k, ordered by bottom
    size then lexicographically; their monomials span the quotient as a
    Q[t]-module."""
    basis = []
    for ell in range(ctx.k + 1):
        basis.extend(enumerate_standard_tableaux(ctx.n, ell))
    return tuple(basis)


class BasisMatrix(NamedTuple):
    """Localized images of the basis monomials.

    The restriction of x_T at w is (product of w(j) over bottom entries
    j) * t^(size of bottom); ``integer_core`` holds the integer factor in
    row w, column T: rows in the order of ``fixed_points``, columns in
    that of ``standard_monomial_basis``.  The determinant of the images
    therefore factors as det(integer_core) times a power of t, and a
    nonzero integer core is exactly linear independence over the fraction
    field of Q[t].  The solve and ``straightening_mismatches`` read
    ``column_keys`` (the bottom-row bit set of each column's tableau) from
    here and the context's ``_value_columns`` beside it, so neither is
    rebuilt per polynomial.
    """

    integer_core: tuple[tuple[int, ...], ...]
    column_keys: tuple[int, ...]


@_per_context
def basis_image_matrix(ctx: SpringerContext) -> BasisMatrix:
    points = fixed_points(ctx)
    tableaux = standard_monomial_basis(ctx)
    if len(points) != len(tableaux):
        raise ConsistencyError(
            f"{len(points)} fixed points vs {len(tableaux)} basis tableaux"
        )
    # column T holds the values of x_T
    values = _value_columns(ctx)
    columns = [_monomial_values(values, monomial_from_filling(tab)[: ctx.n]) for tab in tableaux]
    core = tuple(zip(*columns))
    return BasisMatrix(
        integer_core=core,
        column_keys=tuple(sum(1 << (j - 1) for j in tab.bottom) for tab in tableaux),
    )


# The primes ``core_determinant_residue`` reduces the core modulo, in the
# order it tries them: the three largest below 2^31.
DETERMINANT_PRIMES = (2147483647, 2147483629, 2147483587)


def _pack(values: Iterable[int], size: int) -> int:
    """The nonnegative integers values, each below 2^(8 * size), as one
    integer: slot i holds the i-th value in size little-endian bytes.  The
    one writer of packed slots: the residue's rows and the straighten
    check's columns are built here."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, values, repeat(size), repeat("little"))), "little"
    )


def _determinant_residue(matrix: tuple[tuple[int, ...], ...], p: int) -> int:
    """det(matrix) mod the prime p, in 0..p-1, by Gaussian elimination on
    residues.  Each step takes the first row whose leading entry is
    nonzero mod p as pivot, reduces it mod p and scales it to a leading 1,
    and subtracts (leading entry mod p) times it from every later row,
    dropping the column.  Only the pivot row is reduced, so an entry moves
    by less than (p - 1)^2 a step and stays below p + n (p - 1)^2 in
    absolute value.  Each row is one integer of signed slots, one per
    column (``_pack``), of W = bits(p + n (p - 1)^2) + 1 bits rounded up
    to whole bytes, so a row's update is one big-integer multiply-add: the
    low slot, read balanced, is the leading entry, and shifting it out
    drops the column."""
    n = len(matrix)
    size = ((p + n * (p - 1) ** 2).bit_length() + 8) // 8
    width = 8 * size
    half = 1 << (width - 1)
    mask = (half << 1) - 1
    rows = [_pack([a % p for a in entries], size) for entries in matrix]
    det = 1
    for length in range(n - 1, -1, -1):
        for at, row in enumerate(rows):
            lead = ((row + half) & mask) - half
            if lead % p:
                break
        else:
            return 0
        if at:
            rows[0], rows[at] = row, rows[0]
            det = -det
        det = det * lead % p
        inverse = pow(lead, -1, p)
        rest, pivot = (row - lead) >> width, 0
        for i in range(length):  # the pivot row's later slots, low first
            a = ((rest + half) & mask) - half
            rest = (rest - a) >> width
            pivot |= a * inverse % p << width * i
        del rows[0]
        for i, row in enumerate(rows):
            lead = ((row + half) & mask) - half
            rows[i] = ((row - lead) >> width) - lead % p * pivot
    return det % p


def core_determinant_residue(ctx: SpringerContext) -> Optional[tuple[int, int]]:
    """A witness that the integer core is nonsingular, (p, det(core) mod
    p) with a nonzero residue, from the first of ``DETERMINANT_PRIMES``
    that gives one; None when the residue vanishes modulo all three, which
    a nonsingular core can still do, so the check fails closed.  Computed
    per call; it builds no inverse, and no entry grows past p + N (p - 1)^2
    for an N x N core."""
    core = basis_image_matrix(ctx).integer_core
    for p in DETERMINANT_PRIMES:
        residue = _determinant_residue(core, p)
        if residue:
            return p, residue
    return None


@_per_context
def _core_inverse(ctx: SpringerContext) -> Optional[tuple[ScaledInverse, int]]:
    """The integer core's exact inverse (adj, d), None when singular, and
    adj's largest absolute row sum R: no solve's numerator exceeds R times
    its largest absolute right-hand entry.  Built on the first solve only."""
    inverse = rational_inverse(basis_image_matrix(ctx).integer_core)
    return inverse and (inverse, max(sum(map(abs, row)) for row in inverse[0]))


# -- straightening, route one: solve against the localized basis -------------


# What both routes hand the lift: per bottom-row bit set b, the Fraction
# coefficients of c_{T_b} by rising t-power, the last nonzero.  The theory
# makes c_T polynomial, so a route refuses a negative power as it writes one.
Rows = dict[int, list[Fraction]]

NON_POLYNOMIAL = "straightening produced a non-polynomial coefficient"
NO_BASIS_KEY = "straightening produced a coordinate at {:#b}, which is no basis key"
_ZERO = Fraction(0)


@_per_context
def _bottom_row_fillings(ctx: SpringerContext) -> dict[int, TwoRowFilling]:
    """The filling of 1..n whose bottom row is the bit set b, entry j for
    each bit j - 1, keyed by b.  Only the lift ``_coefficient_polys``
    stores fillings, those of the keys it returns; ``verify`` lifts
    nothing, so it stores none."""
    return {}


def _coefficient_polys(ctx: SpringerContext, rows: Rows) -> dict[TwoRowFilling, TPoly]:
    """Wrap the rows both routes hand over as the Q[t] coefficients of
    their tableaux.  Each key is checked once per context, before its
    filling is first stored: a key of no basis tableau (past x_n, of more
    than k bits, or not ``is_standard``, which shares no code with the
    ballot scan that decides keys) raises ConsistencyError."""
    n, k, fillings = ctx.n, ctx.k, _bottom_row_fillings(ctx)
    for b in rows:
        if b not in fillings:
            bits = [b >> i & 1 for i in range(n)]
            if b >> n or b.bit_count() > k or not is_standard(tab := filling_from_monomial(bits, n)):
                raise ConsistencyError(NO_BASIS_KEY.format(b))
            fillings.setdefault(b, tab)
    return {fillings[b]: TPoly._make(tuple(row)) for b, row in rows.items()}


# A packed right-hand side is closed before its slots would pass this many
# bits: dense inputs of high degree then cost one solve per few degrees,
# not one solve whose integers grow with the whole input.
PACK_BITS = 4096


def straighten_by_solve(
    f: MPoly, ctx: SpringerContext
) -> dict[TwoRowFilling, TPoly]:
    """Coefficients c_T in Q[t] with f = sum of c_T x_T modulo the
    equivariant ideal, found by solving the localization system.

    Each homogeneous component of degree d restricts to s_d / scale times
    t^d at every fixed point, where scale is one common denominator of f's
    coefficients and s_d sums, over the component's terms, each
    coefficient times scale times the term's integer values
    (``_monomial_values``).  The system so splits into one integer solve
    per degree against the integer core of the basis matrix, factored once
    per context.  Those solves share one matrix, so they are made together
    by Kronecker substitution at t = 2^B: consecutive degrees are packed
    into one right-hand side per fixed point, lowest degree in the lowest
    slot, and a pack is closed before it passes PACK_BITS bits.  Every
    w(i) lies in 1..n, so |s_d,w| is at most the sum of |coefficient *
    scale| * n^(x-degree) over the component's terms; degree d's slot is
    bits(R * that bound) + 2 wide, with R the adjugate's largest absolute
    row sum (``_core_inverse``), and one pass over f's terms shifts each
    term's values into its slot.  The solve is linear, so each numerator
    packs the same way, and its slot holds it: adding half of every
    slot's range makes each slot nonnegative, so one ``solve_rational``
    call per pack gives each degree's numerators as plain bit fields; bits
    left above the top slot raise ConsistencyError, as does a singular
    core.  Each key's numerators are decoded over d * scale straight into
    its row (``Rows``).  This route and ``straighten_by_rewrite``
    cross-check each other in the tests, in ``straighten --method both``
    and in the benchmark's stream.
    """
    if f.nvars != ctx.nvars:
        raise ValueError(f"expected a polynomial in {ctx.nvars} variables")
    factored = _core_inverse(ctx)
    if factored is None:
        raise ConsistencyError(f"basis images are dependent over Q[t] for n={ctx.n}, k={ctx.k}")
    inverse, bound = factored
    keys, columns = basis_image_matrix(ctx).column_keys, _value_columns(ctx)
    n, scale = ctx.n, lcm(1, *(c.denominator for c in f.terms.values()))
    terms = [(sum(m), c.numerator * (scale // c.denominator), m) for m, c in f.terms.items()]
    weights: dict[int, int] = {}  # degree: the bound on |s_d,w| above
    for degree, factor, mono in terms:
        weights[degree] = weights.get(degree, 0) + abs(factor) * n ** (degree - mono[n])
    packs: list[list[tuple[int, int, int, int]]] = []  # (degree, offset, mask, half), low first
    for degree in sorted(weights):
        width = (bound * weights[degree]).bit_length() + 2
        if not packs or top + width > PACK_BITS:
            packs.append([])
            top = 0
        packs[-1].append((degree, top, (1 << width) - 1, 1 << (width - 1)))
        top += width
    slots = {degree: (at, offset) for at, pack in enumerate(packs) for degree, offset, _, _ in pack}
    rhs = [repeat(0) for _ in packs]
    for degree, factor, mono in terms:
        at, offset = slots[degree]
        factor <<= offset
        rhs[at] = [r + factor * v for r, v in zip(rhs[at], _monomial_values(columns, mono[:n]))]
    rows: Rows = {}
    for pack, right in zip(packs, rhs):
        packed, d = solve_rational(inverse, right)
        bias = sum(half << offset for _, offset, _, half in pack)  # its top bit ends the top slot
        packed = [y + bias for y in packed]
        if any(y >> bias.bit_length() for y in packed):
            raise ConsistencyError("a packed solve left bits above its top slot")
        den = d * scale
        for b, y in zip(keys, packed):
            ell, row = b.bit_count(), rows.get(b, [])
            for degree, offset, mask, half in pack:
                a = (y >> offset & mask) - half
                if a:
                    if degree < ell:
                        raise ConsistencyError(NON_POLYNOMIAL)
                    row += repeat(_ZERO, degree - ell - len(row))
                    row.append(Fraction(a, den))
            if row:
                rows[b] = row
    return _coefficient_polys(ctx, rows)


# -- straightening, route two: inductive rewriting ---------------------------


# Integer numerators ((b, a_b), ...), keyed by the bottom-row bit set b of
# the tableau _bottom_row_fillings(ctx)[b].
Coordinates = tuple[tuple[int, int], ...]


@_per_context
def _rewrite_memo(ctx: SpringerContext) -> dict[tuple[int, ...], Coordinates]:
    """Finished straightenings of the context's x-monomials, keyed by
    exponents alpha, as integer ``Coordinates`` with x^alpha = sum of a_b *
    t^(|alpha| - ell(T_b)) * x_{T_b} modulo the ideal; I is homogeneous
    with t in degree 1, so the t-power is implied.  Entries are made only
    as the rewriting reaches them, so a straightening's cost does not grow
    with the C(n, k) basis monomials.  A walk stores its values only when
    it ends, so threads sharing the memo never read a partial one."""
    return {}


def _combine(entries: list[tuple[Coordinates, int]], divisor: int = 1) -> Coordinates:
    """The sum of c * numerators over entries (numerators, c), c an
    integer, divided exactly by the positive divisor, zeros dropped: a memo
    entry.  A remainder would make it no integer coordinates, so it raises
    ConsistencyError naming the divisor."""
    accum: dict[int, int] = {}
    for numerators, c in entries:
        for q, a in numerators:
            accum[q] = accum.get(q, 0) + c * a
    if divisor != 1 and any(a % divisor for a in accum.values()):
        raise ConsistencyError(f"a rewriting step's divisor {divisor} leaves a remainder")
    return tuple([(q, a // divisor) for q, a in accum.items() if a])


def _power_terms(weights: Mapping[int, int], j: int, base: Monomial) -> dict[Monomial, int]:
    """(sum of weights[p] * x_p)^j * x^base as integer terms, j factors of
    ``_linear_product``; p runs over monomial slots, t included."""
    return _linear_product([weights] * j, base)


def _cancel(
    relation: dict[Monomial, int], target: Monomial, ctx: SpringerContext
) -> tuple[list[tuple[Monomial, int]], int]:
    """Solve an integer relation lying in the ideal for its target
    monomial: (terms, divisor) with x^target = sum c * x^m / divisor."""
    coefficient = relation.pop(target, 0)
    if not coefficient:
        raise ConsistencyError(
            f"vanishing coefficient while straightening {target[:-1]} "
            f"for n={ctx.n}, k={ctx.k}"
        )
    sign = -1 if coefficient > 0 else 1
    return [(m, sign * c) for m, c in relation.items() if c], abs(coefficient)


def _rewrite_expansion(
    ctx: SpringerContext, alpha: tuple[int, ...]
) -> Optional[tuple[list[tuple[Monomial, int]], int]]:
    """One rewriting step on the x-monomial with exponents alpha, the one
    place that picks its rule; None for a basis monomial, which the ballot
    scan ``_first_bad_column`` finds standard.  Otherwise (terms, divisor),
    with x^alpha = sum of c * x^m / divisor modulo the ideal: each m a full
    monomial (t last), each c an integer, the divisor a positive integer,
    and every x-part of an m strictly smaller than alpha: lower x-degree,
    or the same degree with a longer strictly increasing column prefix."""
    n, k = ctx.n, ctx.k
    target = alpha + (0,)
    # a repeated variable: apply the square rule at the first one
    for pos, e in enumerate(alpha):
        if e >= 2:
            rest = target[:pos] + (e - 2,) + target[pos + 1 :]
            return [(tuple(map(add, m, rest)), c) for m, c in _square_rules(ctx)[pos]], 1
    support = tuple(i + 1 for i in range(n) if alpha[i])
    if len(support) > k:
        # eliminate the product of the k+1 smallest support variables
        remainder = list(target)
        for i in support[: k + 1]:
            remainder[i - 1] = 0
        relation = _linear_product(_product_forms(ctx, support[: k + 1]), remainder)
        return _cancel(relation, target, ctx)
    # squarefree: cancel it through the j-th power of the linear relation,
    # j its first bad column; rest^j - (-head)^j lies in the ideal
    mask = sum(1 << (i - 1) for i in support)
    j = _first_bad_column(mask, n)
    if not j:
        return None
    head, tail = _rule_split(mask, j, n)
    base = tuple(tail >> p & 1 for p in range(ctx.nvars))
    linear = _linear_form(ctx)
    rest = {p: a for p, a in linear.items() if not head >> p & 1}
    minus_head = {p: -a for p, a in linear.items() if head >> p & 1}
    relation = _power_terms(rest, j, base)
    for m, c in _power_terms(minus_head, j, base).items():
        relation[m] = relation.get(m, 0) - c
    return _cancel(relation, target, ctx)


def _straighten_x_monomial(ctx: SpringerContext, alpha: tuple[int, ...]) -> Coordinates:
    """Straighten a single x-monomial (exponents over x1..xn) into basis
    coordinates, memoized per context as integer numerators per basis
    monomial; a memoized alpha returns at once.

    An explicit work stack drives the rewriting, so no power is too high
    for the interpreter's recursion limit.  Each monomial not yet known
    takes one ``_rewrite_expansion`` step, which alone decides its rule;
    one that returns None keeps a basis monomial as its own key, its bit
    set, and the terms of any other are checked for the step's degree.
    ``expanding`` maps each monomial this call has rewritten but not yet
    finished to its expansion; those form the chain from alpha to the top
    of the stack, so meeting one again is a cycle.  ``done`` holds the
    values the walk has read or made; both are private to the call, and
    ``done`` reaches the memo only when the walk ends."""
    memo = _rewrite_memo(ctx)
    value = memo.get(alpha)
    if value is not None:
        return value
    n, k = ctx.n, ctx.k
    expanding: dict[tuple[int, ...], tuple[list[tuple[tuple[int, ...], int]], int]] = {}
    done: dict[tuple[int, ...], Coordinates] = {}
    stack = [alpha]
    while stack:
        beta = stack[-1]
        pending = expanding.pop(beta, None)
        if pending is not None:
            # every monomial of the expansion has been finished above beta
            terms, divisor = pending
            done[beta] = _combine([(done[sub], c) for sub, c in terms], divisor)
            stack.pop()
            continue
        if beta in done:  # finished since it was pushed
            stack.pop()
            continue
        step = _rewrite_expansion(ctx, beta)
        if step is None:
            done[beta] = ((sum(e << i for i, e in enumerate(beta)), 1),)
            stack.pop()
            continue
        terms, divisor = step
        degree = sum(beta)
        subs = [(mono[:n], c) for mono, c in terms if sum(mono) == degree]
        if len(subs) != len(terms):
            raise ConsistencyError(f"rewriting {beta} left degree {degree} for n={n}, k={k}")
        expanding[beta] = (subs, divisor)
        for sub, _ in subs:  # distinct: the terms are, and share one degree
            if sub in done:
                continue
            value = memo.get(sub)
            if value is not None:
                done[sub] = value
                continue
            if sub in expanding:
                raise ConsistencyError(f"rewriting cycled on {sub}")
            stack.append(sub)
    memo.update(done)
    return done[alpha]


def straighten_by_rewrite(
    f: MPoly, ctx: SpringerContext
) -> dict[TwoRowFilling, TPoly]:
    """Straighten by the inductive rewriting procedure.

    Repeated variables are removed with the square rule; squarefree
    monomials in more than k variables are cut down with the product
    relation on their k+1 smallest indices; squarefree monomials with a
    non-standard filling are cancelled through a power of the linear
    relation, which strictly grows the increasing column prefix.  Each
    step therefore terminates, and the result agrees with the linear
    algebra route.  Every step divides exactly and every memo entry is
    integral, so each degree's memo numerators, times the input
    coefficients over one scale, the lcm of their denominators, sum to
    integers; they go straight into the rows (``Rows``) over that scale,
    with no gcd, as each ``Fraction`` normalizes itself once.
    """
    if f.nvars != ctx.nvars:
        raise ValueError(f"expected a polynomial in {ctx.nvars} variables")
    n, scale = ctx.n, lcm(1, *(c.denominator for c in f.terms.values()))
    by_degree: dict[int, dict[int, int]] = {}  # degree: {key: numerator over scale}
    for mono, c in f.terms.items():
        factor, sums = c.numerator * (scale // c.denominator), by_degree.setdefault(sum(mono), {})
        for b, a in _straighten_x_monomial(ctx, mono[:n]):
            sums[b] = sums.get(b, 0) + factor * a
    rows: Rows = {}
    for degree, sums in sorted(by_degree.items()):
        for b, a in sums.items():
            if a:
                power, row = degree - b.bit_count(), rows.setdefault(b, [])
                if power < 0:
                    raise ConsistencyError(NON_POLYNOMIAL)
                row += repeat(_ZERO, power - len(row))
                row.append(Fraction(a, scale))
    return _coefficient_polys(ctx, rows)


def straightening_mismatches(ctx: SpringerContext, monomials: Iterable[Monomial]) -> int:
    """How many monomials the rewriting route straightens to coordinates
    that do not localize to the monomial: x^alpha t^e has integer memo
    numerators a_b, and the two sides are homogeneous of one degree, so
    they localize equally exactly when sum_b a_b * core[w][b] = w^alpha at
    every fixed point w (t = 1).  Localization is injective and the core
    nonsingular (``kernel_ideal_comparisons``, steps 1-4;
    ``basis-determinant`` is the witness), so coordinates that pass are
    the unique ones, those the solve route finds, and no inverse is built.
    The rewriting divides only exactly (``_combine``), so a pass on
    ``table_monomials`` proves every table entry integral too: the
    Z[t]-span of the x_T then holds 1 and is closed under each x_i, so
    integer polynomials straighten to integer coordinates in every degree.

    The comparison is packed by Kronecker substitution: each core column
    becomes one integer P_b of fixed-width slots, one per fixed point
    (``_pack``), so each monomial costs one big-integer multiply-add per
    coordinate, sum_b a_b * P_b, against pack(w^alpha).  A first pass
    reads every monomial's coordinates and bounds each slot of the
    difference by B = max of max(core) * sum_b |a_b| + n^|alpha|, as
    every w(i) lies in 1..n.  In slots of W = bits(B) + 2 bits, rounded up
    to whole bytes, no slot of the difference reaches 2^(W-1), so the
    packed sides are equal exactly when every slot is; the width grows
    with the input, so no input overflows it.

    The x-part alone decides the comparison, so the monomials are first
    grouped by x-part, each with its count and its lowest total degree;
    each distinct x-part is then straightened, bounded and compared once,
    and a mismatch counts once per monomial.  Only the memo's coordinates
    are kept between the passes, no values at the fixed points.  A key
    with more bits than the lowest degree of its x-part, which is some
    monomial's degree, or one that is no basis column, raises
    ConsistencyError, as in the routes and their lift."""
    matrix = basis_image_matrix(ctx)
    core, n = matrix.integer_core, ctx.n
    groups: dict[tuple[int, ...], list[int]] = {}  # x-part: [count, lowest degree]
    for mono in monomials:
        alpha, degree = mono[:n], sum(mono)
        group = groups.get(alpha)
        if group is None:
            groups[alpha] = [1, degree]
        else:
            group[0] += 1
            if degree < group[1]:
                group[1] = degree
    bound = top = max(map(max, core))  # the packed columns' slots hold core entries too
    straightened = []  # (x-part, coordinates, count)
    for alpha, (count, lowest) in groups.items():
        numerators = _straighten_x_monomial(ctx, alpha)
        weight = 0
        for b, a in numerators:
            if b.bit_count() > lowest:
                raise ConsistencyError(NON_POLYNOMIAL)
            weight += abs(a)
        bound = max(bound, top * weight + n ** sum(alpha))
        straightened.append((alpha, numerators, count))
    size = (bound.bit_length() + 2 + 7) // 8
    packed = dict(zip(matrix.column_keys, (_pack(column, size) for column in zip(*core))))
    columns, mismatches = _value_columns(ctx), 0
    for alpha, numerators, count in straightened:
        lhs = 0
        for b, a in numerators:
            if b not in packed:
                raise ConsistencyError(NO_BASIS_KEY.format(b))
            lhs += a * packed[b]
        mismatches += count * (lhs != _pack(_monomial_values(columns, alpha), size))
    return mismatches


def basis_combination(
    coefficients: Mapping[TwoRowFilling, TPoly], ctx: SpringerContext
) -> MPoly:
    """The polynomial sum of c_T x_T for a straightening coefficient map."""
    terms = {}  # each (T, t-power) pair is its own monomial
    for tab, cpoly in coefficients.items():
        x_part = monomial_from_filling(tab)[: ctx.n]
        for power, coeff in enumerate(cpoly.coeffs):
            if coeff:
                terms[x_part + (power,)] = coeff
    return MPoly(ctx.nvars, terms)


def squarefree_monomials(ctx: SpringerContext, max_x_degree: int) -> list[Monomial]:
    """All squarefree monomials in x1..xn of x-degree up to the bound."""
    out = []
    for ell in range(min(max_x_degree, ctx.n) + 1):
        for subset in combinations(range(ctx.n), ell):
            mono = [0] * ctx.nvars
            for p in subset:
                mono[p] = 1
            out.append(tuple(mono))
    return out


def table_monomials(ctx: SpringerContext) -> list[Monomial]:
    """The ``straighten`` check's monomials, each once: the squarefree
    ones of x-degree at most k + 1, then every product x_i x_T (i = 1..n,
    T a basis tableau).  With M_i the table of x_i on the x_T, its column
    T the coordinates of x_i x_T, core M_i = diag(w(i)) core at t = 1
    (Stickelberger's theorem; the M_i are FGLM's multiplication matrices),
    and a pass on x_i x_T is exactly its column T.  The core being
    nonsingular (``kernel_ideal_comparisons``; ``basis-determinant`` is
    the witness), the rewrite route's tables are then the true
    multiplication maps on the free Q[t]-basis, and they determine every
    polynomial in every degree, as x^alpha = x_i x^(alpha - e_i), by
    induction on degree.  The route's own output past degree k + 1 is
    compared with the solve route's by the tests, ``straighten --method
    both`` and the benchmark's stream, not here."""
    monomials = dict.fromkeys(squarefree_monomials(ctx, ctx.k + 1))
    for tab in standard_monomial_basis(ctx):
        x_t = monomial_from_filling(tab)
        for i in range(ctx.n):
            monomials[x_t[:i] + (x_t[i] + 1,) + x_t[i + 1 :]] = None
    return list(monomials)


# -- I at t = 0 is J ---------------------------------------------------------


def _sum_terms(*parts: tuple[int, Mapping[Monomial, Fraction]]) -> dict[Monomial, Fraction]:
    """Sum c * terms over (c, terms) of int or Fraction terms, zero terms
    dropped, ints where exact."""
    total: dict[Monomial, Fraction] = {}
    for c, terms in parts:
        for m, a in terms.items():
            total[m] = total.get(m, 0) + c * (a.numerator if a.denominator == 1 else a)
    return {m: a for m, a in total.items() if a}


@_per_context
def _specializes_to_j(ctx: SpringerContext) -> bool:
    """I + (t) = J + (t), by a certificate on the generator lists: the
    t = 0 images of I's generators are, in order, J's e1 and x1^2, then
    x_i^2 - x_{i-1}^2 for i = 2..n, then J's products; the squares
    telescope.  A list of another shape fails even if its ideal is J.
    Each image is the product of ``_generator_forms``' factors with the
    t slot dropped, expanded as it is compared (I never is); cached per context."""
    n = ctx.n
    j = [g.terms for g in ordinary_ideal(ctx).generators]
    telescoped = (_sum_terms((1, j[i]), (-1, j[i - 1])) for i in range(2, n + 1))
    pairs = _generator_forms(ctx)
    return len(pairs) == len(j) and all(
        _linear_product([{p: a for p, a in form.items() if p < n} for form in forms], (0,) * n)
        == image
        for (_, forms), image in zip(pairs, chain(j[:2], telescoped, j[n + 1 :]))
    )


# -- ideal equals kernel, in every degree -----------------------------------


class KernelIdealCheck(NamedTuple):
    """The certificate that I is the kernel of localization, one boolean
    per step of the proof in ``kernel_ideal_comparisons``, in order.
    ``quotient_dimension`` is that of Q[x]/J, None for a J list of another
    shape or a degree where its bounds differ (step 3); ``span_counts``
    holds, for d = 0..k, the standard d-subsets that the paper's rule at
    t = 0 leaves spanning (Q[x]/J0)_d, None where the rule fails;
    ``graded_counts`` holds #{T : ell(T) = d} over the basis tableaux and
    ``expected_counts`` the closed form C(n, d) - C(n, d - 1), d = 0..k."""

    generators_vanish: bool
    specializes_to_j: bool
    tableau_standard: bool
    quotient_dimension: Optional[int]
    points_distinct: bool
    span_counts: tuple[Optional[int], ...]
    graded_counts: tuple[int, ...]
    expected_counts: tuple[int, ...]

    @property
    def ok(self) -> bool:
        steps = self.generators_vanish, self.specializes_to_j, self.tableau_standard
        return all(steps) and self.points_distinct and self.graded_counts == self.expected_counts


def kernel_ideal_comparisons(ctx: SpringerContext) -> KernelIdealCheck:
    """Prove that the equivariant ideal is the kernel of localization in
    every degree, or report which step of the proof fails.

    1. I's generators vanish at every fixed point (``verify_relations``).
    2. I + (t) = J + (t) (``_specializes_to_j``).
    3. The N tableau monomials x_T are a basis of Q[x]/J.  J's list is
       J0's, J0 = (e1, x_1^2, ..., x_n^2), then every squarefree
       (k+1)-product, so J = J0 + m^(k+1), m = (x_1, ..., x_n)
       (``_j_is_j0_plus_products``): Q[x]/J is (Q[x]/J0)_d in degree
       d <= k and 0 above.  Modulo the non-squarefree monomials, (J0)_d
       is spanned by the C(n, d - 1) products e1 x_R, so
       dim (Q[x]/J0)_d >= C(n, d) - C(n, d - 1).  The paper's
       non-standard rule at t = 0 writes each non-standard squarefree
       monomial as a combination of later ones modulo J0 (checked for
       d <= k once per context, ``_rule_span_counts``), so the standard
       d-subsets, found by a ballot scan, span (Q[x]/J0)_d and bound its
       dimension from above.  Where the two bounds meet for every d <= k
       (``_j_quotient_dimension``), the standard monomials are a basis;
       they are the x_T when the tableau bottoms are distinct, standard
       by the same scan, of size at most k and as many.

    4. The fixed points are N distinct points w = (w(1), ..., w(n)).

    By 2 and 3 the x_T form a Q-basis of M/tM = Q[x]/J, where
    M = Q[x,t]/I.  M is graded with finite-dimensional pieces, and
    M_d = (Q-span of the x_T)_d + t M_{d-1}, so by induction on d (graded
    Nakayama) the x_T span M over Q[t].  Setting t = 1, they span
    Q[x]/(I at t = 1) over Q.  By 1 that ring maps to Q^N by evaluation at
    the N distinct points of 4, and the map is onto: products of linear
    forms interpolate (Q[x]/I(V) = Q^|V| for a finite set V; Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, ch. 5).  N spanning
    elements mapped onto Q^N go to a basis, so the matrix of values
    x_T(w), the integer core of ``basis_image_matrix``, is nonsingular;
    no determinant is computed.  Localization sends sum c_T x_T to the
    vector with entry sum_T c_T(t) * t^ell(T) * core[w][T] at w, which
    vanishes only when every c_T does.  So {x_T} is a free Q[t]-basis of
    M, and localization is injective on M: ker = I in every degree.

    The graded counts #{T : ell(T) = d} are the Betti numbers of the
    Springer fiber and must equal C(n, d) - C(n, d - 1).
    """
    n, k = ctx.n, ctx.k
    dimension = _j_quotient_dimension(ctx)
    tableaux = standard_monomial_basis(ctx)
    bottoms = {sum(1 << (b - 1) for b in tab.bottom) for tab in tableaux}
    return KernelIdealCheck(
        generators_vanish=verify_relations(ctx).ok,
        specializes_to_j=_specializes_to_j(ctx),
        tableau_standard=dimension is not None
        and len(bottoms) == len(tableaux) == dimension
        and all(mask.bit_count() <= k and not _first_bad_column(mask, n) for mask in bottoms),
        quotient_dimension=dimension,
        points_distinct=len({w.w for w in fixed_points(ctx)}) == len(tableaux),
        span_counts=_rule_span_counts(ctx),
        graded_counts=tuple(sum(tab.ell == d for tab in tableaux) for d in range(k + 1)),
        expected_counts=_graded_dimensions(n, k),
    )


# -- ordinary cohomology checks ----------------------------------------------


class OrdinaryCheck(NamedTuple):
    dimension: Optional[int]
    expected_dimension: int
    tanisaki_equal: bool
    specialization_equal: bool

    @property
    def ok(self) -> bool:
        dimension_ok = self.dimension == self.expected_dimension
        return dimension_ok and self.tanisaki_equal and self.specialization_equal


def ordinary_presentation_check(ctx: SpringerContext) -> OrdinaryCheck:
    """dim Q[x]/J = C(n, k); J equals I at t = 0 (``_specializes_to_j``)
    and Tanisaki's ideal, by certificates on the generator lists, with no
    normal form and no Groebner basis.  The dimension comes from two bounds
    in each degree d <= k (``_j_quotient_dimension``), with J = J0 +
    m^(k+1) read off J's list: C(n, d) - C(n, d - 1) from below, as the
    products e1 x_R span (J0)_d modulo the non-squarefree monomials, and
    the standard d-subsets from above, as the paper's rule at t = 0
    reduces every other squarefree monomial to them.  It runs neither step
    1 nor step 4 of ``kernel_ideal_comparisons`` and reads no fixed point,
    so this check stays cheap on its own.  Tanisaki's
    e1 and products are J's, and J's squares are x_i^2 = x_i e1 - e2(all)
    + e2(omit i), so each e2(omit i) lies in J once e2(all) does: the
    identity 2 e2(all) = e1^2 - sum x_i^2, checked on J's e1 and squares,
    shows it.  Conversely e2(all) is the sum of the e2(omit i) over n - 2
    for n >= 3, x1 x2 (a multiple of a product generator) for n = 2, 0 for
    n = 1.  A list of another shape fails even if its ideal is J."""
    n = ctx.n
    j = [g.terms for g in ordinary_ideal(ctx).generators]
    # tanisaki_ideal lists e1, e2(omit i) for i = n, n - 1, ..., 1, the products
    tanisaki = tanisaki_ideal(ctx).generators
    e1, e2_omit, products = tanisaki[0].terms, tanisaki[1 : n + 1], tanisaki[n + 1 :]
    e2 = {tuple(int(p in pair) for p in range(n)): 1 for pair in combinations(range(n), 2)}
    if n >= 3:
        e2_in = _sum_terms(*((1, g.terms) for g in e2_omit)) == _sum_terms((n - 2, e2))
    else:  # e2(all) is 0 or x1 x2, which a monomial product generator divides
        e2_in = not e2 or any(len(p) == 1 and monomial_divides(*p.terms, *e2) for p in products)
    squares = []  # x_i e1 - e2(all) + e2(omit i) for i = 1..n
    for i, g in enumerate(reversed(e2_omit)):
        x_i_e1 = {tuple(e + (p == i) for p, e in enumerate(m)): c for m, c in e1.items()}
        squares.append(_sum_terms((1, x_i_e1), (-1, e2), (1, g.terms)))
    return OrdinaryCheck(
        dimension=_j_quotient_dimension(ctx),
        expected_dimension=comb(n, ctx.k),
        tanisaki_equal=_j_is_j0_plus_products(ctx)
        and [e1, *squares, *(p.terms for p in products)] == j
        and e2_in
        # past the list comparison, e1 is J's e1 and j[1 : n + 1] J's squares;
        # e1 squares as an integer form, so a non-integral coefficient fails
        and all(sum(m) == 1 and c.denominator == 1 for m, c in e1.items())
        and _linear_product([{m.index(1): c.numerator for m, c in e1.items()}] * 2, (0,) * n)
        == _sum_terms((2, e2), *((1, square) for square in j[1 : n + 1])),
        specialization_equal=_specializes_to_j(ctx),
    )
