import argparse
import contextlib
import gc
import importlib.util
import io
import json
import re
import shlex
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from itertools import chain
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tworow import cli, groebner, springer
from tworow.cli import (
    CHECK_NAMES,
    LISTING_LIMIT,
    STRAIGHTEN_CORE_LIMIT,
    STRAIGHTEN_DEGREE_LIMIT,
    VERIFY_WORK_LIMIT,
    main,
)
from tworow.polynomials import MPoly


# verify --n-max 5 --k all --format json, without elapsed_ms
EXPECTED_SWEEP = Path(__file__).with_name("verify_n5_k_all.json")

# exit code, stdout and stderr of 13 invocations, each printed by the
# parser with all five commands, at the Python version and COLUMNS given;
# argparse words some messages differently on other versions
CLI_TEXT = json.loads(Path(__file__).with_name("cli_text.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_fixed_points_text(capsys):
    code, out, _ = run(capsys, "fixed-points", "--n", "4", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# fixed points for n=4, k=2: 6"
    assert lines[1] == "ell=[1, 2] w=[3, 4, 1, 2]"
    assert lines[-1] == "ell=[3, 4] w=[1, 2, 3, 4]"


def test_fixed_points_json(capsys):
    code, payload, _ = run_json(capsys, "fixed-points", "--n", "2", "--k", "1")
    assert code == 0
    assert payload["context"] == {"n": 2, "k": 1}
    assert payload["fixed_points"] == [
        {"ell": [1], "w": [2, 1]},
        {"ell": [2], "w": [1, 2]},
    ]


@pytest.mark.parametrize(
    "argv, context",
    [
        (("fixed-points", "--n", "3", "--k", "1"), {"n": 3, "k": 1}),
        (("generators", "--n", "3", "--k", "1", "--ideal", "J"), {"n": 3, "k": 1}),
        (("straighten", "--n", "3", "--k", "1", "--poly", "x1*x2"), {"n": 3, "k": 1}),
        (("tableaux", "--n", "4", "--ell", "2"), {"n": 4, "k": None}),
        (("tableaux", "--shape", "3,1"), {"n": 4, "k": None}),
        (("verify", "--n-max", "2"), {"n": 2, "k": None}),
    ],
)
def test_json_reports_open_with_command_and_context(argv, context, capsys):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert list(payload)[:2] == ["command", "context"]
    assert payload["command"] == "tworow " + " ".join(argv) + " --format json"
    assert payload["context"] == context


def test_fixed_points_usage_error(capsys):
    code, _, err = run(capsys, "fixed-points", "--n", "3", "--k", "2")
    assert code == 2
    assert "k <= n/2" in err


def test_generators_counts(capsys):
    code, payload, _ = run_json(capsys, "generators", "--n", "2", "--k", "1", "--ideal", "I")
    assert code == 0
    assert payload["count"] == 4  # 1 + 2 + C(2,2)
    texts = {g["text"] for g in payload["generators"]}
    assert "x1 + x2 - 3*t" in texts

    code, payload, _ = run_json(capsys, "generators", "--n", "4", "--k", "2", "--ideal", "tanisaki")
    assert payload["count"] == 9  # 1 + 4 + C(4,3)

    code, payload, _ = run_json(capsys, "generators", "--n", "1", "--k", "0", "--ideal", "J")
    assert payload["count"] == 3
    assert {g["text"] for g in payload["generators"]} == {"x1", "x1^2"}


def test_generators_unknown_ideal(capsys):
    code = main(["generators", "--n", "2", "--k", "1", "--ideal", "K"])
    capsys.readouterr()
    assert code == 2


def test_straighten_both_methods(capsys):
    code, payload, _ = run_json(
        capsys, "straighten", "--n", "2", "--k", "1", "--poly", "x1", "--method", "both"
    )
    assert code == 0
    assert payload["agree"] is True
    table = {tuple(map(tuple, e["tableau"])): e["coefficient"] for e in payload["coefficients"]}
    assert table[((1, 2), ())] == "3*t"
    assert table[((1,), (2,))] == "-1"


def test_straighten_basis_element(capsys):
    code, payload, _ = run_json(
        capsys, "straighten", "--n", "4", "--k", "2", "--poly", "x3*x4"
    )
    assert code == 0
    assert payload["coefficients"] == [
        {"tableau": [[1, 2], [3, 4]], "coefficient": "1"}
    ]


def test_straighten_square_follows_reduction(capsys):
    code, payload, _ = run_json(
        capsys, "straighten", "--n", "2", "--k", "1", "--poly", "x1^2"
    )
    assert code == 0
    table = {tuple(map(tuple, e["tableau"])): e["coefficient"] for e in payload["coefficients"]}
    assert table[((1, 2), ())] == "7*t^2"
    assert table[((1,), (2,))] == "-3*t"


def test_straighten_single_methods(capsys):
    for method in ("oracle", "paper"):
        code, payload, _ = run_json(
            capsys, "straighten", "--n", "2", "--k", "1",
            "--poly", "x1", "--method", method,
        )
        assert code == 0
        assert "agree" not in payload
        table = {tuple(map(tuple, e["tableau"])): e["coefficient"] for e in payload["coefficients"]}
        assert table == {((1, 2), ()): "3*t", ((1,), (2,)): "-1"}


STRAIGHTEN_PINNED = (
    "straighten", "--n", "4", "--k", "2", "--method", "both",
    "--poly", "1/3*x1^2 - x4 + 3/2*t^2 - 2/5*x2*x4 + x3*x4*t",
)


def test_straighten_text_is_pinned(capsys):
    # negative and fractional coefficients in t^0, t^1 and t^k, each
    # tableau printed by TwoRowFilling.text and each coefficient by TPoly
    code, out, _ = run(capsys, *STRAIGHTEN_PINNED)
    assert code == 0
    assert out == (
        "# straighten x3*x4*t + 1/3*x1^2 - 2/5*x2*x4 + 3/2*t^2 - x4  (n=4, k=2, method=both)\n"
        "[[1,2,3,4],[]] : 83/6*t^2\n"
        "[[1,3,4],[2]] : -4/3*t\n"
        "[[1,2,4],[3]] : -4/3*t\n"
        "[[1,2,3],[4]] : -4/3*t - 1\n"
        "[[1,3],[2,4]] : -2/5\n"
        "[[1,2],[3,4]] : t\n"
        "methods agree: True\n"
    )


def test_straighten_json_is_pinned(capsys):
    code, out, _ = run(capsys, *STRAIGHTEN_PINNED, "--format", "json")
    assert code == 0
    coefficients = [
        ([[1, 2, 3, 4], []], "83/6*t^2"),
        ([[1, 3, 4], [2]], "-4/3*t"),
        ([[1, 2, 4], [3]], "-4/3*t"),
        ([[1, 2, 3], [4]], "-4/3*t - 1"),
        ([[1, 3], [2, 4]], "-2/5"),
        ([[1, 2], [3, 4]], "t"),
    ]
    expected = {
        "command": "tworow " + " ".join(STRAIGHTEN_PINNED) + " --format json",
        "context": {"n": 4, "k": 2},
        "polynomial": "x3*x4*t + 1/3*x1^2 - 2/5*x2*x4 + 3/2*t^2 - x4",
        "method": "both",
        "coefficients": [{"tableau": tab, "coefficient": c} for tab, c in coefficients],
        "agree": True,
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_straighten_high_power_needs_no_recursion(capsys):
    # the rewriting chain for x1^3000 is 3000 steps deep
    code, out, err = run(
        capsys, "straighten", "--n", "2", "--k", "1", "--poly", "x1^3000", "--method", "both"
    )
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "methods agree: True"


def test_straighten_parse_error(capsys):
    # integers past Python's digit limit (4300 by default) are parse errors
    for poly in ("x1 + ?", "7" * 5000 + "*x1", "x1^" + "7" * 5000):
        code, out, err = run(capsys, "straighten", "--n", "2", "--k", "1", "--poly", poly)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse polynomial:") and "position" in err


@pytest.mark.parametrize(
    "argv",
    [("--poly", "x1^16000", "--method", "paper"), ("--poly", "x1^100000000")],
    ids=["x1^16000", "x1^100000000"],
)
def test_straighten_degree_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, "straighten", "--n", "2", "--k", "1", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: polynomial degree exceeds the limit of {STRAIGHTEN_DEGREE_LIMIT}\n"


@pytest.mark.parametrize("n, k", [(1000, 1), (16, 8)], ids=["n1000-k1", "n16-k8"])
def test_straighten_core_refused_at_once(capsys, n, k):
    # the default --method both would build and invert a C(n,k)-square core
    started = time.perf_counter()
    code, out, err = run(capsys, "straighten", "--n", str(n), "--k", str(k), "--poly", "x1")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: C({n},{k}) exceeds the basis core limit of {STRAIGHTEN_CORE_LIMIT} "
        "for --method both; use --method paper\n"
    )


def test_verify_refuses_a_straighten_core_past_the_limit_at_once(capsys):
    # (11,5) has a 462 x 462 core; verify runs the straighten check by default
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n-max", "11")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: C(11,5) exceeds the basis core limit of {STRAIGHTEN_CORE_LIMIT} "
        "for the straighten check; leave it out of --checks\n"
    )
    code, _, _ = run(capsys, "verify", "--n-max", str(10**9), "--checks", "straighten")
    assert code == 2
    code, out, _ = run(capsys, "verify", "--n-max", "11", "--checks", "fixed-points")
    assert code == 0
    assert "fixed-points[n=11,k=5]" in out


def test_verify_refuses_fixed_points_past_the_listing_limit_at_once(capsys):
    # each context builds up to C(n, n // 2) fixed points of n entries,
    # first too many at n = 22; the walk up to it makes no huge comb
    assert 21 * comb(21, 10) <= LISTING_LIMIT < 22 * comb(22, 11)
    refusal = (
        f"error: C(22,11) fixed points would build more than {LISTING_LIMIT} exponent entries\n"
    )
    builders = [n for n in CHECK_NAMES if n not in ("hook-identity", "square-reduction")]
    for n_max in ("22", str(10**9)):
        for checks in (",".join(builders), *builders, "hook-identity,ordinary"):
            started = time.perf_counter()
            code, out, err = run(capsys, "verify", "--n-max", n_max, "--checks", checks)
            assert time.perf_counter() - started < 1.0
            assert (code, out) == (2, ""), checks
            if not {"straighten", "basis-determinant"} & set(checks.split(",")):
                assert err == refusal, checks  # the other two are refused at C(11,5)
    checks = "hook-identity,square-reduction"
    code, out, _ = run(capsys, "verify", "--n-max", "40", "--k", "max", "--checks", checks)
    assert code == 0
    assert "hook-identity[n=40,k=20]" in out


@pytest.mark.parametrize(
    "checks", ["hook-identity", "square-reduction", "hook-identity,square-reduction"]
)
def test_verify_refuses_a_walk_past_the_work_limit_at_once(checks):
    # checks that build no fixed points meet no listing limit; the walk's
    # n^3 work per context is first too much at n = 141 for --k max.  A
    # subprocess, so that a hang fails this test instead of the suite
    import subprocess

    argv = ["verify", "--n-max", str(10**9), "--k", "max", "--checks", checks]
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "tworow", *argv], capture_output=True, text=True, timeout=10
    )
    assert time.perf_counter() - started < 1.0
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: the walk up to n=141 exceeds the work limit of {VERIFY_WORK_LIMIT}\n"
    )
    assert 140**2 * 141**2 // 4 <= VERIFY_WORK_LIMIT < 141**2 * 142**2 // 4


def test_verify_refuses_a_basis_determinant_core_past_the_limit_at_once(capsys, monkeypatch):
    # basis-determinant would reduce the 462 x 462 core at (11,5) mod p
    calls = []
    monkeypatch.setattr(springer, "_determinant_residue", lambda m, p: calls.append(m) or 1)
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--n-max", "11", "--checks", "basis-determinant")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: C(11,5) exceeds the basis core limit of {STRAIGHTEN_CORE_LIMIT} "
        "for the basis-determinant check; leave it out of --checks\n"
    )
    assert calls == []


def test_straighten_paper_method_needs_no_core(capsys):
    # C(10,5) = 252 is at the limit, and the rewriting route builds no core
    code, out, _ = run(
        capsys, "straighten", "--n", "10", "--k", "5", "--method", "paper", "--poly", "x1"
    )
    assert code == 0
    assert "method=paper" in out


def test_straighten_paper_method_cost_ignores_basis_size(capsys, monkeypatch):
    # C(40,20) is about 1.4 * 10^11: the rewriting route must reach only
    # the basis monomials it needs, never list the basis; x1 has degree 1,
    # so the output weighs C(40,1) tableaux of 40 entries, far below the limit
    def refuse(n, ell):
        raise AssertionError("the rewriting route enumerated the basis")

    monkeypatch.setattr(springer, "enumerate_standard_tableaux", refuse)
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "straighten", "--n", "40", "--k", "20", "--method", "paper", "--poly", "x1"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    lines = out.splitlines()
    # x1 = 820 t - (x2 + ... + x40), from the linear relation
    assert lines[1].endswith(" : 820*t") and len(lines) == 41


def test_straighten_unprintable_coefficient(capsys):
    # the coefficients of x1^3000 at (2,1) have about 900 digits: more
    # than the lowest digit limit Python allows
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "straighten", "--n", "2", "--k", "1", "--poly", "x1^3000")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err == "error: a coefficient has too many digits to print\n"


def test_straighten_unknown_variable(capsys):
    code, _, err = run(capsys, "straighten", "--n", "2", "--k", "1", "--poly", "x7")
    assert code == 2
    assert "x7" in err


def test_tableaux_enumeration(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "4", "--ell", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == ["[[1,3],[2,4]]", "[[1,2],[3,4]]"]


def test_tableaux_hooks(capsys):
    code, payload, _ = run_json(capsys, "tableaux", "--shape", "4,3,2,1,1")
    assert code == 0
    assert payload["hook_lengths"][1][0] == 6
    assert payload["standard_tableau_count"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        # C(10,3) candidate bottom rows of 10 entries each
        (("--n", "10", "--ell", "3"), "C(10,3) candidate fillings would build more than 200"),
        # 41 boxes in 5 rows weigh 205 hook scans
        (("--shape", "9,8,8,8,8"), "shape's boxes times rows exceed 200"),
        (("--shape", "101"), "shape has more than 100 boxes"),
    ],
    ids=["enumeration", "hook-scans", "boxes"],
)
def test_tableaux_too_large_refused(capsys, monkeypatch, argv, message):
    # small limits stand in for the real ones, so nothing oversized runs;
    # listings within them still succeed
    monkeypatch.setattr(cli, "LISTING_LIMIT", 200)
    monkeypatch.setattr(cli, "SHAPE_BOX_LIMIT", 100)
    code, out, err = run(capsys, "tableaux", *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert run(capsys, "tableaux", "--n", "4", "--ell", "2")[0] == 0
    assert run(capsys, "tableaux", "--shape", "4,3,2,1,1")[0] == 0
    assert run(capsys, "tableaux", "--shape", "50,50")[0] == 0


def test_tableaux_large_two_row_shape(capsys):
    # two rows keep the hook scans short: (2000,2000) is well within both
    # limits, and its count of about 1,200 digits prints
    code, out, _ = run(capsys, "tableaux", "--shape", "2000,2000")
    assert code == 0
    assert out.startswith("# shape [2000, 2000]: ")


def test_tableaux_unprintable_count(capsys):
    # the shape (1200,1200) has a Catalan number of tableaux, over 700 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "tableaux", "--shape", "1200,1200")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err == "error: the tableau count has too many digits to print\n"


def test_tableaux_requires_arguments(capsys):
    code, _, err = run(capsys, "tableaux")
    assert code == 2
    assert "--shape" in err


def test_tableaux_empty_shape_is_a_bad_shape(capsys):
    # an empty --shape is given, not missing: it neither falls through to
    # --n and --ell nor asks for them
    code, out, err = run(capsys, "tableaux", "--shape", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad shape ''")


def test_tableaux_refuses_n_zero(capsys):
    # named as SpringerContext names it, not as an empty partition
    code, out, err = run(capsys, "tableaux", "--n", "0", "--ell", "0")
    assert (code, out, err) == (2, "", "error: need n >= 1, got n=0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--shape", "", "--n", "4", "--ell", "2"),
        ("--shape", "2,1", "--n", "4", "--ell", "2"),
        ("--shape", "2,1", "--n", "4"),
        ("--shape", "2,1", "--ell", "2"),
    ],
    ids=["empty-shape-and-both", "shape-and-both", "shape-and-n", "shape-and-ell"],
)
def test_tableaux_refuses_shape_with_n_or_ell(capsys, argv):
    # --shape never silently drops --n or --ell
    code, out, err = run(capsys, "tableaux", *argv)
    assert (code, out) == (2, "")
    assert err == "error: provide either --shape or both --n and --ell, not both\n"


def test_verify_small_all_pass(capsys):
    code, payload, _ = run_json(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert payload["command"].startswith("tworow verify")
    assert all(entry["status"] == "pass" for entry in payload["checks"])
    assert {"name", "status", "details", "elapsed_ms"} <= set(payload["checks"][0])
    assert isinstance(payload["elapsed_ms"], int)


def test_verify_trivial_context(capsys):
    code, payload, _ = run_json(capsys, "verify", "--n-max", "1")
    assert code == 0
    assert all(entry["status"] == "pass" for entry in payload["checks"])


def test_verify_full_small_sweep(capsys):
    code, payload, _ = run_json(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert len(payload["checks"]) == 8 * 8  # eight checks over eight contexts
    assert all(entry["status"] == "pass" for entry in payload["checks"])
    kernel = [e for e in payload["checks"] if e["name"].startswith("kernel-ideal")]
    assert len(kernel) == 8
    assert all("all degrees" in e["details"] for e in kernel)


def test_verify_sweep_reports_match_the_expectation_file(capsys):
    # every check's name, status and details of the sweep the benchmark
    # runs, elapsed_ms left out; a changed text shows in the file's diff
    code, payload, _ = run_json(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    found = [{key: e[key] for key in ("name", "status", "details")} for e in payload["checks"]]
    assert found == json.loads(EXPECTED_SWEEP.read_text())


def test_verify_check_subset_and_text_agreement(capsys):
    code_json, payload, _ = run_json(
        capsys, "verify", "--n-max", "3", "--checks", "ordinary,hook-identity"
    )
    code_text, out, _ = run(
        capsys, "verify", "--n-max", "3", "--checks", "ordinary,hook-identity"
    )
    assert code_json == code_text == 0
    names = [e["name"] for e in payload["checks"]]
    assert all(n.startswith(("ordinary", "hook-identity")) for n in names)
    # text and JSON carry the same verdicts in the same order
    text_lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(text_lines) == len(payload["checks"])
    for line, entry in zip(text_lines, payload["checks"]):
        assert line.startswith(entry["status"].upper())
        assert entry["name"] in line


def test_verify_k_policy_max(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--n-max", "4", "--k", "max", "--checks", "fixed-points"
    )
    assert code == 0
    names = [e["name"] for e in payload["checks"]]
    assert names == [
        "fixed-points[n=1,k=0]",
        "fixed-points[n=2,k=1]",
        "fixed-points[n=3,k=1]",
        "fixed-points[n=4,k=2]",
    ]


def test_verify_singular_core_fails_basis_determinant_alone(capsys, monkeypatch):
    # a determinant at (4,2), the only 6 x 6 core up to n = 4, that
    # vanishes mod every prime fails the one check that reads the
    # determinant; kernel-ideal proves the core nonsingular by counting
    # points, reads no determinant, and passes
    original = springer._determinant_residue
    monkeypatch.setattr(
        springer, "_determinant_residue", lambda m, p: 0 if len(m) == 6 else original(m, p)
    )
    code, payload, _ = run_json(capsys, "verify", "--n-max", "4", "--k", "max")
    assert code == 1
    expected = [
        f"{name}[n={n},k={n // 2}]" for n in range(1, 5) for name in CHECK_NAMES
    ]
    assert [e["name"] for e in payload["checks"]] == expected
    failed = {e["name"]: e["details"] for e in payload["checks"] if e["status"] == "fail"}
    assert failed == {
        "basis-determinant[n=4,k=2]": "integer core determinant is 0 mod each of "
        "2147483647, 2147483629, 2147483587"
    }


def test_verify_core_with_a_duplicated_row_fails_basis_determinant(capsys, monkeypatch):
    # a core whose first row is repeated is singular: its determinant is 0
    # mod each of the three primes, and the check names all three
    original = springer.basis_image_matrix

    def duplicated(ctx):
        matrix = original(ctx)
        if (ctx.n, ctx.k) != (4, 2):
            return matrix
        core = matrix.integer_core
        return matrix._replace(integer_core=(core[0], core[0], *core[2:]))

    monkeypatch.setattr(springer, "basis_image_matrix", duplicated)
    argv = ["verify", "--n-max", "4", "--k", "all", "--checks", "basis-determinant"]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 1
    failed = {e["name"]: e["details"] for e in payload["checks"] if e["status"] == "fail"}
    assert list(failed) == ["basis-determinant[n=4,k=2]"]
    assert all(str(p) in failed["basis-determinant[n=4,k=2]"] for p in springer.DETERMINANT_PRIMES)


def test_verify_builds_no_exact_inverse(capsys, monkeypatch):
    # the straighten check tests the rewritten coordinates against the
    # localized values; kernel-ideal proves the core nonsingular, so no
    # context inverts it or solves against it
    calls = []
    for name in ("rational_inverse", "solve_rational"):
        def counted(*args, name=name, original=getattr(springer, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(springer, name, counted)
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert calls == []


def test_verify_does_no_mpoly_arithmetic(capsys, monkeypatch):
    # I's generators, the square-rule check and the rewrite rules expand
    # products of linear forms as integer terms; with every context fresh,
    # no check adds, subtracts, multiplies or powers an MPoly
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__pow__"):
        def counted(*args, name=name, original=getattr(MPoly, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(MPoly, name, counted)
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert calls == []


def test_verify_does_no_fraction_arithmetic(capsys, monkeypatch):
    # generator coefficients share one unit Fraction, and the certificates
    # compare and expand integer terms: no check adds, multiplies, divides,
    # negates or powers a Fraction
    calls = []
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__neg__", "__pow__")
    for name in names:
        def counted(*args, name=name, original=getattr(Fraction, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert calls == []


@pytest.mark.parametrize(
    "case", CLI_TEXT["invocations"], ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_cli_text_is_the_full_parsers(case, capsys, monkeypatch):
    # help and usage errors print, byte for byte, the recorded texts of
    # the parser with every command's subparser, and exit alike
    monkeypatch.setenv("COLUMNS", str(CLI_TEXT["columns"]))
    got = run(capsys, *case["argv"])
    assert got[0] == case["code"]
    if sys.version_info[:2] == tuple(CLI_TEXT["python"]):
        assert got == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv, built", [(["verify", "--n-max=2"], 6), (["-h"], 6), (["verify", "--n-max", "2"], 0)]
)
def test_main_builds_the_full_parser_unless_the_line_is_plain(argv, built, capsys, monkeypatch):
    # the top parser and its five subparsers, or nothing for a plain line
    parsers = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(parsers) == built


def _argparse_namespace(argv):
    """What the full parser returns for argv; the test fails if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses a line read as plain: {argv}")


_FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values() for flag in arguments})
_FLAGS.append("--format")
_DASHED = ["-1", "-3", "-h", "--", "-", "-x1", "--n", "--n=2", "--format"]
_VALUES = [
    "0", "2", "5", " 3", "+4", "1_0", "1.5", "x", "", "x1^2*t - 1/2", "4,3,1", "all", "max",
    "both", "paper", "oracle", "I", "J", "tanisaki", "text", "json", "bogus",
    "ordinary,hook-identity", *_DASHED,
]
_values = st.sampled_from(_VALUES)
_dashed = st.sampled_from(_DASHED)
_flags = st.sampled_from(_FLAGS)
_pieces = st.one_of(
    st.tuples(_flags, _values).map(list),
    st.builds(lambda flag, value: [f"{flag}={value}"], _flags, _values),
    st.builds(lambda flag, cut, value: [flag[:cut], value], _flags, st.integers(1, 6), _values),
    st.sampled_from([["-h"], ["--help"], ["--"], [""], ["extra"]]),
)
_heads = st.lists(st.sampled_from([*cli._COMMANDS, "verif", "bogus", "", "-h", "--"]), max_size=1)
_free_lines = st.builds(
    lambda head, pieces: head + list(chain.from_iterable(pieces)), _heads, st.lists(_pieces, max_size=6)
)


@st.composite
def _plain_lines(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = {**cli._COMMANDS[command][2], "--format": cli._FORMAT}
    argv = [command]
    for flag in draw(st.permutations(list(arguments))):
        options = arguments[flag]
        if not options.get("required") and draw(st.booleans()):
            continue
        if "choices" in options:
            value = draw(st.sampled_from(options["choices"]))
        elif options.get("type") is int:
            value = str(draw(st.integers(0, 10**6)))
        else:
            value = draw(st.text(max_size=8).filter(lambda text: not text.startswith("-")))
        argv += [flag, value]
    return argv


@st.composite
def _near_plain_lines(draw):
    """A plain line with up to three edits: a flag's value replaced, a
    piece inserted, a token deleted, or a flag joined to its value."""
    argv = draw(_plain_lines())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["value", "insert", "delete", "join"]))
        if edit == "value" and len(argv) > 2:
            argv[2 * draw(st.integers(1, (len(argv) - 1) // 2))] = draw(st.one_of(_dashed, _values))
        elif edit == "insert":
            argv[i:i] = draw(_pieces)
        elif edit == "delete":
            del argv[i]
        elif i + 1 < len(argv):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        if not argv:
            break
    return argv


@settings(max_examples=500, deadline=None)
@given(st.one_of(_near_plain_lines(), _free_lines))
@example(["straighten", "--n", "2", "--k", "1", "--poly", "-h"])
@example(["verify", "--n-max", "2", "--checks", "--"])
@example(["generators", "--n", "2", "--k", "1", "--ideal", "K"])
def test_a_plain_line_reads_as_argparse_reads_it(argv):
    # every command, flag, abbreviation, --flag=value, repeat, negative or
    # non-integer value, bad choice, missing flag, -h, -- and ''
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(_argparse_namespace(argv))


@settings(max_examples=300, deadline=None)
@given(_plain_lines())
def test_every_plain_line_is_read_without_a_parser(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(_argparse_namespace(argv))


ROOT = Path(__file__).resolve().parents[1]

# "$(python -c '...')" in a CI command line, replaced by what it prints
_SUBSTITUTION = re.compile(r"\"\$\(python -c '([^']*)'\)\"")


def _printed_by(match):
    result = subprocess.run(
        [sys.executable, "-c", match[1]], capture_output=True, text=True, check=True
    )
    return shlex.quote(result.stdout.rstrip("\n"))


def _ci_tworow_lines():
    """The arguments of every tworow call in the CI workflow; a folded
    ``run: >-`` block is one command line, a ``run: |`` block one a line."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    commands = []
    for i, line in enumerate(lines):
        head, run_key, rest = line.partition("run:")
        if not run_key or head.strip():
            continue
        rest = rest.strip()
        if rest not in (">-", "|"):
            commands.append(rest)
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        for body in lines[i + 1 :]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body.strip())
        commands += [" ".join(block)] if rest == ">-" else block
    found = []
    for command in commands:
        tokens = shlex.split(_SUBSTITUTION.sub(_printed_by, command))
        if "tworow" in tokens:
            found.append(tokens[tokens.index("tworow") + 1 :])
    return found


def _benchmark_verify_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return [
        bench.verify_argv(bench.workload_spec(name, tiny))
        for name, workload in bench.WORKLOADS.items()
        if workload["mode"] == "verify"
        for tiny in (False, True)
    ]


def test_benchmark_and_ci_command_lines_are_plain(monkeypatch):
    # all but the helps and one verify that CI spells for argparse alone,
    # so that the installed script runs a real command through the parser
    ci = _ci_tworow_lines()
    calls = [argv for argv in ci if "--help" not in argv]
    calls.remove(parsed := ["verify", "--n-max=3", "--k", "all"])
    assert cli._plain_args(parsed) is None
    assert len(calls) == 7
    benchmark = _benchmark_verify_lines(monkeypatch)
    assert len(benchmark) == 4
    for argv in calls + benchmark:
        assert cli._plain_args(argv) is not None, argv


def test_a_plain_call_imports_no_argparse():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "from tworow import cli; cli.main(['verify', '--n-max', '2']); "
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_verify_computes_no_normal_form(capsys, monkeypatch):
    # ordinary proves Tanisaki's ideal inside J by identities on the
    # generator lists, and no other check reduces a polynomial either
    calls = []
    monkeypatch.setattr(groebner, "normal_form", lambda *args: calls.append(args))
    assert run(capsys, "verify", "--n-max", "5", "--k", "all", "--checks", "ordinary")[0] == 0
    assert run(capsys, "verify", "--n-max", "5", "--k", "all")[0] == 0
    assert calls == []


def test_verify_stores_no_fillings(capsys, monkeypatch):
    # only the lift of a straightening stores tableau fillings, and verify
    # lifts nothing: each of its 11 contexts up to n = 5 fills its rewrite
    # memo but ends with no filling
    made = []
    context = springer.SpringerContext
    monkeypatch.setattr(
        cli, "SpringerContext", lambda **kw: made.append(context(**kw)) or made[-1]
    )
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert len(made) == 11
    assert all(springer._rewrite_memo(ctx) for ctx in made)
    assert [springer._bottom_row_fillings(ctx) for ctx in made] == [{}] * 11


def test_verify_runs_no_groebner_basis(capsys, monkeypatch):
    # kernel-ideal and ordinary prove that the tableau monomials span
    # Q[x]/J by the paper's rule at t = 0, a witness kept per context and
    # shared by both checks: 11 contexts up to n = 5, one witness each, and
    # no Buchberger run or quotient dimension anywhere
    calls, witnessed = [], []
    for name in ("buchberger", "quotient_dimension"):
        monkeypatch.setattr(groebner, name, lambda *args, name=name: calls.append(name))
    witness = springer._rule_span_counts.__wrapped__
    monkeypatch.setattr(
        springer,
        "_rule_span_counts",
        springer._per_context(lambda ctx: witnessed.append(ctx) or witness(ctx)),
    )
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert calls == []
    assert witnessed == [(n, k) for n in range(1, 6) for k in range(n // 2 + 1)]


def test_verify_reads_js_list_certificate_once_per_context(capsys, monkeypatch):
    # kernel-ideal and ordinary both read J's list certificate: 11
    # contexts up to n = 5, 22 reads, one computation per context
    computed, reads = [], []
    compute = springer._j_is_j0_plus_products.__wrapped__
    cached = springer._per_context(lambda ctx: computed.append(ctx) or compute(ctx))
    monkeypatch.setattr(
        springer, "_j_is_j0_plus_products", lambda ctx: reads.append(ctx) or cached(ctx)
    )
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--k", "all")
    assert code == 0
    assert (len(computed), len(reads)) == (11, 22)


def test_verify_frees_every_context_it_made(monkeypatch):
    # what a context derives lives on it, so once verify returns, none of
    # its 8 contexts up to n = 4 is alive, nor any basis matrix it built.
    # Records are tuples, which take no weak reference, so each one holds
    # a marker that nothing else refers to: it dies with its holder.  A
    # plain BasisMatrix has no __dict__ to hold one, so verify builds a
    # subclass that has.
    refs = []
    original = springer.basis_image_matrix

    class Marker:
        pass

    class Held(springer.BasisMatrix):
        pass

    monkeypatch.setattr(springer, "BasisMatrix", Held)

    def spied(ctx):
        matrix = original(ctx)
        for holder in (ctx.cache, vars(matrix)):
            marker = holder.setdefault("marker", Marker())
            refs.append(weakref.ref(marker))
        return matrix

    monkeypatch.setattr(springer, "basis_image_matrix", spied)
    assert main(["verify", "--n-max", "4", "--k", "all"]) == 0
    gc.collect()
    assert len(refs) == 2 * 2 * 8  # basis-determinant and straighten read each matrix
    assert [r() for r in refs] == [None] * len(refs)


def test_verify_consistency_error_fails_one_check(capsys, monkeypatch):
    def contradicted(ctx):
        raise springer.ConsistencyError(f"contradiction at n={ctx.n}")

    monkeypatch.setattr(springer, "verify_square_reduction", contradicted)
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--k", "max")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 2 * len(CHECK_NAMES) + 1
    fails = [line for line in lines if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in fails] == [
        "FAIL square-reduction[n=1,k=0]",
        "FAIL square-reduction[n=2,k=1]",
    ]
    assert "consistency error: contradiction at n=2" in fails[1]
    assert lines[-1].startswith(f"# {2 * len(CHECK_NAMES)} checks, 2 failed")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "2", "--checks", "nope")
    assert code == 2
    assert "unknown checks" in err


def test_verify_empty_check_name_refused(capsys):
    # an empty list or a stray comma names no check; it must not mean "all"
    for checks in ("", "ordinary,"):
        code, out, err = run(capsys, "verify", "--n-max", "2", "--checks", checks)
        assert code == 2, checks
        assert out == ""
        assert "unknown checks ['']" in err


def test_verify_duplicate_check_refused(capsys):
    code, out, err = run(capsys, "verify", "--n-max", "2", "--checks", "ordinary,ordinary")
    assert code == 2
    assert out == ""
    assert "twice" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fixed-points", "--n", "1000", "--k", "500"),  # C(1000,500) points
        ("generators", "--n", "1000", "--k", "2"),  # C(1000,3) product relations
        # 500,501 generators, few enough items, but of 1,001 slots each
        ("generators", "--n", "1000", "--k", "1"),
        # 150 generators e2 of 11,026 terms each
        ("generators", "--n", "150", "--k", "1", "--ideal", "tanisaki"),
        # x1*x2 straightens onto C(20000,1) tableaux of 20,000 entries each
        ("straighten", "--n", "20000", "--k", "1", "--method", "paper", "--poly", "x1*x2"),
    ],
    ids=["fixed-points", "generators", "generators-k1", "tanisaki", "straighten"],
)
def test_listing_too_large_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert f"more than {LISTING_LIMIT} exponent entries" in err


def test_verify_degree_max_refused(capsys):
    # kernel-ideal proves every degree, so there is no depth to set
    code, out, err = run(
        capsys, "verify", "--n-max", "3", "--checks", "kernel-ideal", "--degree-max", "6"
    )
    assert code == 2
    assert "--degree-max" in err
    assert "PASS" not in out


def test_usage_error_exit_codes(capsys):
    assert main(["fixed-points", "--n", "4"]) == 2  # missing --k
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "tworow", "fixed-points", "--n", "2", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "w=[2, 1]" in result.stdout
