"""Command line front end: construction, straightening, and verification.

Every command takes ``--format text|json``; JSON verification reports
use the schema {command, context: {n, k}, checks: [{name, status,
details, elapsed_ms}], elapsed_ms} and the process exits 0 exactly when
every check passed.

The ``_COMMANDS`` table declares each command's arguments once.  A plain
command line (a command, then distinct ``--flag value`` pairs whose
values the table accepts) is read straight from the table, with no
parser built and argparse never imported; every other command line goes
to argparse, which prints the help and every usage error.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import springer, tableaux
from .polynomials import (
    PolyParseError,
    format_poly,
    parse_poly,
    variable_names,
)
from .springer import ConsistencyError, SpringerContext

if TYPE_CHECKING:
    import argparse

# the most exponent entries a listing command may build, 10-15 s of work
# on a 2-vCPU VM; larger requests are refused before anything is built
LISTING_LIMIT = 10**7

# the highest total degree ``straighten`` accepts: x1^3000 takes well
# under a second at (2,1), and its coefficients still print
STRAIGHTEN_DEGREE_LIMIT = 3000

# the largest basis core C(n, k) that ``straighten --method oracle|both``
# inverts and ``verify``'s basis-determinant check reduces mod a prime:
# C(10, 5).  ``verify``'s straighten check inverts nothing, and at (11, 5)
# it and the residue take about 1-1.5 s each; for both checks the limit
# stands in for budgets not yet in place
STRAIGHTEN_CORE_LIMIT = 252

# the most work ``verify`` walks, n^3 per context (n, k), square-reduction's
# cost; passed at n = 63 for --k all and n = 141 for --k max, and the
# largest walks below take 4-6 s of both cheap checks on a 2-vCPU VM
VERIFY_WORK_LIMIT = 10**8

# the most boxes ``tableaux --shape`` takes: n! and the hook product grow
# to about a million digits, and the shape (80000,80000) takes about 2 s
SHAPE_BOX_LIMIT = 160_000


class UsageError(Exception):
    pass


def _context(n: int, k: int) -> SpringerContext:
    try:
        return SpringerContext(n=n, k=k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_listing_size(entries: int, what: str) -> None:
    if entries > LISTING_LIMIT:
        raise UsageError(f"{what} would build more than {LISTING_LIMIT} exponent entries")


def _check_core_size(n: int, k: int, use: str) -> None:
    if comb(n, k) > STRAIGHTEN_CORE_LIMIT:
        raise UsageError(
            f"C({n},{k}) exceeds the basis core limit of {STRAIGHTEN_CORE_LIMIT} {use}"
        )


def _emit(args, context: tuple, payload: dict, text_lines: list[str]) -> None:
    """Print the text lines, or the JSON report: its header, the command
    line and the context (n, k), then the payload."""
    if args.format == "json":
        n, k = context
        header = {"command": args.command_echo, "context": {"n": n, "k": k}}
        print(json.dumps({**header, **payload}, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- listing commands --------------------------------------------------------


def _cmd_fixed_points(args) -> int:
    ctx = _context(args.n, args.k)
    # each of the C(n, k) points is a permutation of n entries
    _check_listing_size(comb(ctx.n, ctx.k) * ctx.n, f"C({ctx.n},{ctx.k}) fixed points")
    points = springer.fixed_points(ctx)
    payload = {"fixed_points": [{"ell": list(w.ell), "w": list(w.w)} for w in points]}
    lines = [f"# fixed points for n={ctx.n}, k={ctx.k}: {len(points)}"]
    for w in points:
        lines.append(f"ell={list(w.ell)} w={list(w.w)}")
    _emit(args, ctx, payload, lines)
    return 0


def _cmd_generators(args) -> int:
    ctx = _context(args.n, args.k)
    # every presentation ideal has 1 + n + C(n, k+1) generators of up to
    # 2^(k+1) terms each, except Tanisaki's n generators e2 of C(n-1, 2)
    # terms; each term holds up to n + 1 exponents
    n, k = ctx.n, ctx.k
    terms = (1 + n + comb(n, k + 1)) * 2 ** (k + 1)
    if args.ideal == "tanisaki":
        terms += n * comb(n - 1, 2)
    _check_listing_size(terms * (n + 1), f"1 + {n} + C({n},{k + 1}) generators")
    ideal = springer.ideal_by_name(ctx, args.ideal)  # the table's choices vet the name
    names = variable_names(ctx.n, include_t=(ideal.name == "I"))
    rendered = [format_poly(g, names) for g in ideal.generators]
    payload = {
        "ideal": ideal.name,
        "count": len(ideal.generators),
        "generators": [
            {"label": label, "text": text}
            for label, text in zip(ideal.labels, rendered)
        ],
    }
    lines = [
        f"# ideal {ideal.name} for n={ctx.n}, k={ctx.k}: {len(ideal.generators)} generators"
    ]
    for label, text in zip(ideal.labels, rendered):
        lines.append(f"{label}: {text}")
    _emit(args, ctx, payload, lines)
    return 0


def _cmd_tableaux(args) -> int:
    if args.shape is not None:
        if args.n is not None or args.ell is not None:
            raise UsageError("provide either --shape or both --n and --ell, not both")
        try:
            parts = tuple(int(p) for p in args.shape.split(","))
            shape = tableaux.Partition(parts)
        except ValueError as exc:
            raise UsageError(f"bad shape {args.shape!r}: {exc}") from exc
        # each box's hook scans the rows below it
        if shape.size * len(shape.parts) > LISTING_LIMIT:
            raise UsageError(f"shape's boxes times rows exceed {LISTING_LIMIT}")
        if shape.size > SHAPE_BOX_LIMIT:
            raise UsageError(f"shape has more than {SHAPE_BOX_LIMIT} boxes")
        hooks = [
            [tableaux.hook_length(shape, r, c) for c in range(1, shape.parts[r - 1] + 1)]
            for r in range(1, len(shape.parts) + 1)
        ]
        count = tableaux.hook_count(shape)
        try:
            count_text = str(count)
        except ValueError as exc:
            # str() refuses integers longer than sys.get_int_max_str_digits()
            raise UsageError("the tableau count has too many digits to print") from exc
        payload = {
            "shape": list(shape.parts),
            "hook_lengths": hooks,
            "standard_tableau_count": count,
        }
        lines = [f"# shape {list(shape.parts)}: {count_text} standard tableaux"]
        for row in hooks:
            lines.append("hooks: " + " ".join(map(str, row)))
        _emit(args, (shape.size, None), payload, lines)
        return 0
    if args.n is None or args.ell is None:
        raise UsageError("provide either --shape or both --n and --ell")
    n, ell = args.n, args.ell
    try:
        tableaux.two_row_shape(n, ell)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # each of the C(n, ell) candidate bottom rows builds a filling of n entries
    _check_listing_size(comb(n, ell) * n, f"C({n},{ell}) candidate fillings")
    found = tableaux.enumerate_standard_tableaux(n, ell)
    payload = {
        "ell": ell,
        "count": len(found),
        "tableaux": [[list(f.top), list(f.bottom)] for f in found],
    }
    lines = [f"# standard tableaux of shape ({n - ell},{ell}): {len(found)}"]
    lines.extend(f.text() for f in found)
    _emit(args, (n, None), payload, lines)
    return 0


def _cmd_straighten(args) -> int:
    ctx = _context(args.n, args.k)
    if args.method in ("oracle", "both"):
        _check_core_size(ctx.n, ctx.k, f"for --method {args.method}; use --method paper")
    names = variable_names(ctx.n)
    try:
        poly = parse_poly(args.poly, names)
    except PolyParseError as exc:
        raise UsageError(f"cannot parse polynomial: {exc}") from exc
    if poly.total_degree() > STRAIGHTEN_DEGREE_LIMIT:
        raise UsageError(f"polynomial degree exceeds the limit of {STRAIGHTEN_DEGREE_LIMIT}")
    # a degree-D x-monomial straightens onto C(n, min(k, D)) tableaux of n entries
    ell = min(ctx.k, max((sum(mono[: ctx.n]) for mono in poly.terms), default=0))
    _check_listing_size(comb(ctx.n, ell) * ctx.n, f"C({ctx.n},{ell}) output tableaux")
    results = {}
    if args.method in ("oracle", "both"):
        results["oracle"] = springer.straighten_by_solve(poly, ctx)
    if args.method in ("paper", "both"):
        results["paper"] = springer.straighten_by_rewrite(poly, ctx)
    agree = results["oracle"] == results["paper"] if args.method == "both" else None
    coefficients = results.get("oracle", results.get("paper"))
    tabs = sorted(coefficients, key=lambda tab: (tab.ell, tab.bottom))
    try:
        rendered = format_poly(poly, names)
        ordered = [(tab, str(coefficients[tab])) for tab in tabs]
    except ValueError as exc:
        # str() refuses integers longer than sys.get_int_max_str_digits()
        raise UsageError("a coefficient has too many digits to print") from exc
    payload = {
        "polynomial": rendered,
        "method": args.method,
        "coefficients": [
            {"tableau": [list(tab.top), list(tab.bottom)], "coefficient": text}
            for tab, text in ordered
        ],
    }
    if agree is not None:
        payload["agree"] = agree
    lines = [f"# straighten {rendered}  (n={ctx.n}, k={ctx.k}, method={args.method})"]
    lines.extend(f"{tab.text()} : {text}" for tab, text in ordered)
    if not ordered:
        lines.append("0")
    if agree is not None:
        lines.append(f"methods agree: {agree}")
    _emit(args, ctx, payload, lines)
    return 1 if agree is False else 0


# -- the verification driver -------------------------------------------------


def _check_fixed_points(ctx):
    enumerated = springer.fixed_points(ctx)
    brute = springer.fixed_points_bruteforce(ctx)
    expected = comb(ctx.n, ctx.k)
    ok = (
        len(enumerated) == expected
        and sorted(w.w for w in enumerated) == brute
    )
    detail = f"{len(enumerated)} fixed points, brute force {'agrees' if ok else 'differs'}"
    return ok, detail


def _check_relations(ctx):
    report = springer.verify_relations(ctx)
    detail = (
        f"{report.generators_checked} generators vanish at "
        f"{report.fixed_points_checked} fixed points"
    )
    if not report.ok:
        detail = f"failures: {report.failures[:3]}"
    return report.ok, detail


def _check_square_reduction(ctx):
    ok = springer.verify_square_reduction(ctx)
    return ok, f"telescoping identity for i=1..{ctx.n}"


def _check_basis_determinant(ctx):
    witness = springer.core_determinant_residue(ctx)
    if witness is None:
        primes = ", ".join(map(str, springer.DETERMINANT_PRIMES))
        return False, f"integer core determinant is 0 mod each of {primes}"
    p, residue = witness
    return True, f"integer core determinant mod {p} = {residue}, so nonzero"


def _check_straighten(ctx):
    monos = springer.squarefree_monomials(ctx, ctx.k + 1)
    monos += springer.sample_monomials(ctx)
    mismatches = springer.straightening_mismatches(ctx, monos)
    detail = f"{len(monos)} monomials rewritten to coordinates that localize to them"
    if mismatches:
        detail = (
            f"{mismatches} of {len(monos)} monomials rewritten to coordinates "
            "that do not localize to them"
        )
    return mismatches == 0, detail


def _check_kernel_ideal(ctx):
    report = springer.kernel_ideal_comparisons(ctx)
    counts = ", ".join(f"d={d}:{c}" for d, c in enumerate(report.graded_counts))
    size = sum(report.graded_counts)
    if not report.generators_vanish:
        detail = "step 1 (vanishing): a generator of I does not vanish at every fixed point"
    elif not report.specializes_to_j:
        detail = "step 2 (I + (t) = J + (t)): I's generators at t = 0 do not telescope to J's"
    elif report.span_counts != report.expected_counts:
        d, count = next(
            (d, c) for d, c in enumerate(report.span_counts) if c != report.expected_counts[d]
        )
        detail = f"step 3 (spanning): the paper's rule at t = 0 fails in degree {d}"
        if count is not None:
            detail = (
                f"step 3 (spanning): in degree {d} the paper's rule at t = 0 leaves {count} "
                f"standard monomials, not C(n,d) - C(n,d-1) = {report.expected_counts[d]}"
            )
    elif report.quotient_dimension is None:
        detail = "step 3 (spanning): J's list is not e1, the squares and the products"
    elif not report.tableau_standard:
        detail = (
            f"step 3 (spanning): the {size} tableau monomials are not the "
            f"{report.quotient_dimension} standard monomials that span Q[x]/J"
        )
    elif not report.points_distinct:
        detail = f"step 4 (distinct points): the fixed points are not {size} distinct points"
    elif report.graded_counts != report.expected_counts:
        detail = (
            f"tableaux by bottom size ({counts}) differ from "
            f"C(n,d) - C(n,d-1) {report.expected_counts}"
        )
    else:
        detail = (
            f"I = kernel in all degrees (I vanishes at the fixed points, I + (t) = J + (t), "
            f"the paper's rule at t = 0 spans Q[x]/J by the tableau monomials, "
            f"N = {size} distinct points: "
            f"a free Q[t]-basis by graded Nakayama); tableaux by bottom size {counts} "
            f"= C(n,d) - C(n,d-1)"
        )
    return report.ok, detail


def _check_ordinary(ctx):
    report = springer.ordinary_presentation_check(ctx)
    detail = (
        f"dim {report.dimension} (expected {report.expected_dimension}), "
        f"tanisaki={report.tanisaki_equal}, t=0 specialization={report.specialization_equal}"
    )
    return report.ok, detail


def _check_hook_identity(ctx):
    binomial, total, equal = tableaux.binomial_hook_identity(ctx.n, ctx.k)
    return equal, f"C({ctx.n},{ctx.k}) = {binomial}, tableau total = {total}"


_CHECKS = {
    "fixed-points": _check_fixed_points,
    "relations": _check_relations,
    "square-reduction": _check_square_reduction,
    "basis-determinant": _check_basis_determinant,
    "straighten": _check_straighten,
    "kernel-ideal": _check_kernel_ideal,
    "ordinary": _check_ordinary,
    "hook-identity": _check_hook_identity,
}

CHECK_NAMES = tuple(_CHECKS)


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    selected = CHECK_NAMES
    if args.checks is not None:
        selected = tuple(name.strip() for name in args.checks.split(","))
        unknown = [name for name in selected if name not in _CHECKS]
        if unknown:
            raise UsageError(
                f"unknown checks {unknown}; available: {', '.join(CHECK_NAMES)}"
            )
        if len(set(selected)) != len(selected):
            raise UsageError(f"--checks names a check twice: {args.checks!r}")
    # every check but hook-identity and square-reduction builds C(n, k) fixed
    # points of n entries, and two the basis core; both peak at k = n // 2,
    # and they and all work grow with n, so the walk stops at the first n too large
    cored = [name for name in ("straighten", "basis-determinant") if name in selected]
    builds, work = set(selected) - {"hook-identity", "square-reduction"}, 0
    for n in range(1, args.n_max + 1):
        for name in cored:
            _check_core_size(n, n // 2, f"for the {name} check; leave it out of --checks")
        if builds:
            _check_listing_size(n * comb(n, n // 2), f"C({n},{n // 2}) fixed points")
        work += n**3 * (n // 2 + 1 if args.k == "all" else 1)
        if work > VERIFY_WORK_LIMIT:
            raise UsageError(f"the walk up to n={n} exceeds the work limit of {VERIFY_WORK_LIMIT}")
    started = time.perf_counter()
    entries = []
    for n in range(1, args.n_max + 1):
        ks = range(n // 2 + 1) if args.k == "all" else (n // 2,)
        for k in ks:
            ctx = SpringerContext(n=n, k=k)
            for name in selected:
                tick = time.perf_counter()
                try:
                    ok, details = _CHECKS[name](ctx)
                except ConsistencyError as exc:
                    # one contradicted check fails on its own line; the
                    # others still run and report
                    ok, details = False, f"consistency error: {exc}"
                elapsed_ms = int((time.perf_counter() - tick) * 1000)
                entries.append(
                    {
                        "name": f"{name}[n={n},k={k}]",
                        "status": "pass" if ok else "fail",
                        "details": details,
                        "elapsed_ms": elapsed_ms,
                    }
                )
    total_ms = int((time.perf_counter() - started) * 1000)
    payload = {"checks": entries, "elapsed_ms": total_ms}
    lines = []
    for entry in entries:
        status = entry["status"].upper()
        lines.append(
            f"{status:4} {entry['name']}: {entry['details']} [{entry['elapsed_ms']} ms]"
        )
    failed = sum(entry["status"] == "fail" for entry in entries)
    lines.append(f"# {len(entries)} checks, {failed} failed, {total_ms} ms")
    _emit(args, (args.n_max, None), payload, lines)
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------


# each command's help text, handler and arguments; every command also takes --format
_REQUIRED_INT = {"type": int, "required": True}
_FORMAT = {"choices": ("text", "json"), "default": "text"}
_COMMANDS = {
    "fixed-points": ("list the circle-fixed points", _cmd_fixed_points,
                     {"--n": _REQUIRED_INT, "--k": _REQUIRED_INT}),
    "generators": ("list presentation ideal generators", _cmd_generators,
                   {"--n": _REQUIRED_INT, "--k": _REQUIRED_INT,
                    "--ideal": {"choices": ("I", "J", "tanisaki"), "default": "I"}}),
    "straighten": ("expand a polynomial over the tableau basis", _cmd_straighten,
                   {"--n": _REQUIRED_INT, "--k": _REQUIRED_INT,
                    "--poly": {"type": str, "required": True},
                    "--method": {"choices": ("oracle", "paper", "both"), "default": "both"}}),
    "tableaux": ("standard tableau enumeration and hook data", _cmd_tableaux,
                 {"--n": {"type": int}, "--ell": {"type": int},
                  "--shape": {"type": str, "help": "comma-separated partition, e.g. 4,3,2,1,1"}}),
    "verify": ("run the verification suite", _cmd_verify,
               {"--n-max": _REQUIRED_INT, "--k": {"choices": ("all", "max"), "default": "all"},
                "--checks": {"type": str, "default": None,
                             "help": "comma-separated subset of: " + ", ".join(CHECK_NAMES)}}),
}


def _plain_args(argv) -> SimpleNamespace | None:
    """What argparse returns for a plain command line, read from the table
    with no parser built; None for any other line.  A plain line is a
    command, then distinct ``--flag value`` pairs, each flag spelled as in
    the table and each value passing its flag's type and choices without
    starting with "-", and every required flag among them."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    arguments = {**arguments, "--format": _FORMAT}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        options = arguments.get(flag)
        if options is None or flag in given or text.startswith("-"):
            return None
        try:
            value = options.get("type", str)(text)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in arguments.items()):
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, options in arguments.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, options.get("default")))
    return args


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command's subparser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tworow",
        description=(
            "Exact presentations of the circle-equivariant and ordinary "
            "cohomology of two-row Springer varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in {**arguments, "--format": _FORMAT}.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        # help, errors and every other spelling go to the full parser
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    args.command_echo = "tworow " + " ".join(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
