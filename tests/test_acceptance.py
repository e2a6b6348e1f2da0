"""Acceptance suite: one test per release criterion, each printed with a
PASS/FAIL line and its runtime.  Every comparison is exact; the time
budgets are generous on desk hardware."""

import time
from math import comb

from conftest import sample_monomials
from tworow.groebner import buchberger, ideal_equal, quotient_dimension
from tworow.polynomials import MPoly
from tworow.springer import (
    SpringerContext,
    fixed_points,
    fixed_points_bruteforce,
    equivariant_ideal,
    kernel_ideal_comparisons,
    ordinary_ideal,
    squarefree_monomials,
    straighten_by_rewrite,
    straighten_by_solve,
    tanisaki_ideal,
    verify_relations,
    verify_square_reduction,
)
from tworow.tableaux import (
    Partition,
    binomial_hook_identity,
    enumerate_standard_tableaux,
    hook_count,
    hook_length,
    two_row_shape,
)


def _contexts(n_max):
    for n in range(1, n_max + 1):
        for k in range(n // 2 + 1):
            yield SpringerContext(n, k)


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_fixed_points():
    started = time.perf_counter()
    known = [
        (3, 4, 1, 2),
        (3, 1, 4, 2),
        (3, 1, 2, 4),
        (1, 3, 4, 2),
        (1, 3, 2, 4),
        (1, 2, 3, 4),
    ]
    ok = [w.w for w in fixed_points(SpringerContext(4, 2))] == known
    checked = 0
    for ctx in _contexts(8):
        enumerated = sorted(w.w for w in fixed_points(ctx))
        ok = ok and enumerated == fixed_points_bruteforce(ctx)
        ok = ok and len(enumerated) == comb(ctx.n, ctx.k)
        checked += 1
    _report(
        "criterion 1 (fixed points vs brute force, n <= 8)",
        ok,
        time.perf_counter() - started,
        10,
        f"{checked} contexts",
    )


def test_criterion_2_generators_vanish():
    started = time.perf_counter()
    ok = True
    generators = 0
    for ctx in _contexts(8):
        report = verify_relations(ctx)
        ok = ok and report.ok
        generators += report.generators_checked
    _report(
        "criterion 2 (all ideal generators localize to zero, n <= 8)",
        ok,
        time.perf_counter() - started,
        10,
        f"{generators} generators",
    )


def test_criterion_3_ideal_equals_kernel_by_degree():
    started = time.perf_counter()
    ok = True
    certified = 0
    for ctx in [*_contexts(6), SpringerContext(7, 3), SpringerContext(8, 4)]:
        check = kernel_ideal_comparisons(ctx)
        ok = ok and check.ok
        certified += sum(check.graded_counts)
    _report(
        "criterion 3 (ideal = localization kernel in every degree, by the tableau "
        "basis, n <= 6, (7,3) and (8,4))",
        ok,
        time.perf_counter() - started,
        120,
        f"{certified} tableau monomials certified as a free Q[t]-basis",
    )


def test_criterion_4_straightening_routes_agree():
    started = time.perf_counter()
    ok = True
    straightened = 0
    for ctx in [
        *_contexts(5), SpringerContext(6, 3), SpringerContext(7, 3), SpringerContext(8, 4)
    ]:
        monos = squarefree_monomials(ctx, ctx.k + 1) + sample_monomials(ctx)
        for mono in monos:
            p = MPoly.from_monomial(mono)
            solved = straighten_by_solve(p, ctx)  # raises if not polynomial
            ok = ok and solved == straighten_by_rewrite(p, ctx)
            straightened += 1
    _report(
        "criterion 4 (both straightening routes agree, n <= 5, (6,3), (7,3), (8,4))",
        ok,
        time.perf_counter() - started,
        60,
        f"{straightened} monomials",
    )


def test_criterion_5_basis_matrix_nonsingular(core_determinant):
    started = time.perf_counter()
    ok = True
    for ctx in [*_contexts(8), SpringerContext(9, 4)]:
        ok = ok and core_determinant(ctx) != 0
    _report(
        "criterion 5 (basis image matrix nonsingular, n <= 8 and (9,4))",
        ok,
        time.perf_counter() - started,
        30,
    )


def test_criterion_6_square_reduction_telescopes():
    started = time.perf_counter()
    ok = all(verify_square_reduction(ctx) for ctx in _contexts(8))
    _report(
        "criterion 6 (square rewriting telescopes exactly, n <= 8)",
        ok,
        time.perf_counter() - started,
        1,
    )


def test_criterion_7_ordinary_presentations():
    started = time.perf_counter()
    ok = True
    for ctx in [*_contexts(6), SpringerContext(7, 3), SpringerContext(8, 4)]:
        j_gens = list(ordinary_ideal(ctx).generators)
        dimension, _ = quotient_dimension(buchberger(j_gens))
        ok = ok and dimension == comb(ctx.n, ctx.k)
        ok = ok and ideal_equal(j_gens, list(tanisaki_ideal(ctx).generators)).equal
        i_gens = equivariant_ideal(ctx).generators
        specialized = [  # t = 0
            MPoly(ctx.n, {m[:-1]: c for m, c in g.terms.items() if not m[-1]}) for g in i_gens
        ]
        ok = ok and ideal_equal(j_gens, specialized).equal
    _report(
        "criterion 7 (ordinary presentation: dimension, Tanisaki, t=0, n <= 6, (7,3) "
        "and (8,4))",
        ok,
        time.perf_counter() - started,
        120,
    )


def test_criterion_8_hooks_and_binomial_identity():
    started = time.perf_counter()
    ok = hook_length(Partition((4, 3, 2, 1, 1)), 2, 1) == 6
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            binomial, total, equal = binomial_hook_identity(n, k)
            ok = ok and equal and binomial == comb(n, k)
    for n in range(1, 11):
        for ell in range(n // 2 + 1):
            ok = ok and len(enumerate_standard_tableaux(n, ell)) == hook_count(
                two_row_shape(n, ell)
            )
    _report(
        "criterion 8 (hook formula and binomial identity, n <= 12)",
        ok,
        time.perf_counter() - started,
        10,
    )
