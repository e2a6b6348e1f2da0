#!/usr/bin/env python3
"""The tworow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample runs in a fresh
interpreter (``worker.py``) that imports tworow from the checkout's
``src`` directory, so no ``lru_cache`` table or rewrite memo carries over
from one sample to the next.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the lines before it
give the run context and every metric by name, with its unit.

Times are reported in reference-host seconds: each worker runs the
calibration loop of ``calibrate.py`` and its times are scaled by
REFERENCE_S over its own calibration time, because the speed of this
kind of host changes from one process to the next (see README.md).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced samples of fixed work and
reports the per-layer metrics; see ``tracer.py``.

Exit codes: 0 when every verdict check passed, 1 when one failed, 2 when
the benchmark cannot run (for example, no tworow sources in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from calibrate import REFERENCE_S
from tracer import COUNTED, SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".perfbench"

# Set-up-only interpreters started at the beginning of every run; with
# the set-up of each measuring interpreter they give the setup_s median.
SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 100.0  # keeps a run with a hung worker under 180 s

# The verify checks, written out here rather than read from tworow so that
# a check the program silently drops is counted as missing.
VERIFY_CHECKS = (
    "fixed-points",
    "relations",
    "square-reduction",
    "basis-determinant",
    "straighten",
    "kernel-ideal",
    "ordinary",
    "hook-identity",
)

# Each workload is named for what it exercises.  ``tiny`` replaces the
# sizes for the smoke test; it changes no code path.
WORKLOADS = {
    # The whole verification as a user runs it: every check, every k.
    # No layer dominates and every context is new, so the rewrite memo is
    # written but never reused.  A change to any layer shows here.
    "verify-sweep": {
        "mode": "verify", "n_max": 5, "k": "all", "checks": VERIFY_CHECKS,
        "tiny": {"n_max": 3},
    },
    # Warm straightening at (7,3): solve_rational dominates, the rewrite
    # memo is read far more than written, and Groebner and RREF never run.
    "straighten-stream": {
        "mode": "stream", "n": 7, "k": 3, "batch": 20,
        "tiny": {"n": 4, "k": 2, "batch": 3},
    },
    # Only the ordinary check, up to (6,3): Buchberger and normal forms do
    # nearly all the work; no straightening and no RREF run.
    "ordinary-n6": {
        "mode": "verify", "n_max": 6, "k": "max", "checks": ("ordinary",),
        "tiny": {"n_max": 4},
    },
}

# Six terms of six distinct total degrees out of 0..6: the solve route
# runs one elimination per degree, so every input costs about the same
# and a run's median does not hinge on which seed drew heavier inputs.
STREAM_TERMS = 6
STREAM_MAX_DEGREE = 6


class BenchError(Exception):
    """The benchmark itself could not run."""


# -- inputs ------------------------------------------------------------------


def workload_spec(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    overrides = spec.pop("tiny")
    if tiny:
        spec.update(overrides)
    spec["name"] = name
    return spec


def verify_argv(spec: dict) -> list[str]:
    argv = ["verify", "--n-max", str(spec["n_max"]), "--k", spec["k"], "--format", "json"]
    if spec["checks"] != VERIFY_CHECKS:
        argv += ["--checks", ",".join(spec["checks"])]
    return argv


def expected_entries(spec: dict) -> list[tuple[str, int, int]]:
    out = []
    for n in range(1, spec["n_max"] + 1):
        ks = range(n // 2 + 1) if spec["k"] == "all" else (n // 2,)
        for k in ks:
            out.extend((check, n, k) for check in spec["checks"])
    return out


def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def canonical_text(terms: dict, names) -> str:
    """The text tworow's grammar calls canonical: terms descending in
    grevlex with x1 > ... > xn > t, unit coefficients omitted."""
    pieces = []
    for mono in sorted(terms, key=_grevlex_key, reverse=True):
        coeff = terms[mono]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
        body = "*".join(factors)
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def stream_texts(seed: int, batch: int, count: int, n: int) -> list[str]:
    """Seeded random polynomials in Q[x1..xn, t]: STREAM_TERMS terms of
    distinct total degrees at most STREAM_MAX_DEGREE with small rational
    coefficients, as canonical text.  Batch b of seed s is always the same."""
    rng = random.Random(f"tworow-stream:{seed}:{batch}")
    names = [f"x{i}" for i in range(1, n + 1)] + ["t"]
    texts = []
    for _ in range(count):
        terms = {}
        for degree in rng.sample(range(STREAM_MAX_DEGREE + 1), STREAM_TERMS):
            mono = [0] * (n + 1)
            for _ in range(degree):
                mono[rng.randrange(n + 1)] += 1
            terms[tuple(mono)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        texts.append(canonical_text(terms, names))
    return texts


# -- verdicts ----------------------------------------------------------------


def verify_verdict(spec: dict, rc: int, output: str) -> tuple[int, list[str], dict]:
    """Check one ``verify`` report without trusting the program: exit code
    0, every expected check present and passing, and each ordinary
    quotient dimension equal to C(n, k).  Returns (attempted, problems,
    per-check seconds summed over contexts)."""
    expected = expected_entries(spec)
    problems = []
    if rc != 0:
        problems.append(f"verify exited {rc}")
    try:
        entries = {e["name"]: e for e in json.loads(output)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return len(expected), problems + [f"unreadable verify report: {exc}"] * len(expected), {}
    seconds: dict[str, float] = {}
    for check, n, k in expected:
        name = f"{check}[n={n},k={k}]"
        entry = entries.pop(name, None)
        if entry is None:
            problems.append(f"{name} missing")
            continue
        seconds[check] = seconds.get(check, 0.0) + entry["elapsed_ms"] / 1000
        if entry["status"] != "pass":
            problems.append(f"{name} status {entry['status']}")
        elif check == "ordinary":
            found = re.search(r"\bdim (\d+)\b", entry["details"])
            if found is None or int(found.group(1)) != math.comb(n, k):
                problems.append(f"{name} dimension is not C({n},{k}): {entry['details']}")
    problems.extend(f"unexpected entry {name}" for name in entries)
    return len(expected), problems, seconds


# -- worker processes --------------------------------------------------------


def _read_until_eof(proc, timeout: float) -> bytes:
    fd = proc.stdout.fileno()
    stop = time.monotonic() + timeout
    chunks = []
    while True:
        left = stop - time.monotonic()
        if left <= 0:
            raise BenchError(f"worker timed out after {timeout:.0f} s")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            data = os.read(fd, 1 << 16)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def spawn(job: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker to completion.  Adds ``raw_setup_s`` (spawn to
    ready), ``setup_s`` (in reference-host seconds, scaled by the
    calibration right after set-up) and ``peak_rss_mb`` (the child's own
    peak, from wait4)."""
    job = dict(job, src=str(SRC))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    reaped = False
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        raw = _read_until_eof(proc, timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
        proc.returncode = -1  # reaped here; keep Popen from waiting again
        proc.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    lines = raw.decode().strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"worker exited {code} without a report")
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready_clock"] - spawned
    report["setup_s"] = report["raw_setup_s"] * REFERENCE_S / report["calibration_s"][0]
    report["peak_rss_mb"] = usage.ru_maxrss / 1024
    return report


def sample_job(spec: dict, seed: int, batch: int, stop_after_s: float) -> dict:
    if spec["mode"] == "verify":
        return {"mode": "verify", "argv": verify_argv(spec)}
    return {
        "mode": "stream", "n": spec["n"], "k": spec["k"],
        "texts": stream_texts(seed, batch, spec["batch"], spec["n"]),
        "stop_after_s": stop_after_s,
    }


class Sample:
    """The outcome of one measuring interpreter; times in reference-host
    seconds, except ``raw_latencies``."""

    def __init__(self, spec: dict, report: dict):
        self.report = report
        cal = report["calibration_s"]
        self.scale = REFERENCE_S / statistics.mean(cal)
        # each latency is scaled by the two calibrations around it
        scales = [2 * REFERENCE_S / (cal[g] + cal[g + 1]) for g in report.get("groups", [0])]
        if spec["mode"] == "verify":
            self.attempted, self.problems, check_seconds = verify_verdict(
                spec, report["rc"], report["output"])
            self.check_seconds = {c: v * scales[0] for c, v in check_seconds.items()}
            self.raw_latencies = [report["wall_s"]]
        else:
            self.attempted = report["attempted"]
            self.problems = report["failures"]
            self.check_seconds = {}
            self.raw_latencies = report["latencies_s"]
        self.latencies = [x * f for x, f in zip(self.raw_latencies, scales)]
        self.wall = sum(self.latencies)
        self.failed = min(self.attempted, len(self.problems))


# -- metrics -----------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def check_totals(samples) -> dict[str, float]:
    """Per-check seconds of each verify sample, summed over contexts; the
    median over samples."""
    names = sorted({c for s in samples for c in s.check_seconds})
    return {
        f"check.{c.replace('-', '_')}_s": statistics.median(s.check_seconds.get(c, 0.0) for s in samples)
        for c in names
    }


def end_to_end(spec, setups, samples) -> tuple[dict, dict]:
    """(gated metrics, extra metrics printed for the reader only).
    ``setups`` are worker reports; times are in reference-host seconds,
    except the ``raw.`` extras, which are as the clock read them."""
    latencies = [x for s in samples for x in s.latencies]
    gated = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(latencies),
        "peak_rss_mb": statistics.median(s.report["peak_rss_mb"] for s in samples),
    }
    extra: dict[str, tuple[float, str]] = {
        "samples": (len(latencies), "count"), "setups": (len(setups), "count")}
    if spec["mode"] == "stream":
        extra["straighten_per_s"] = (len(latencies) / sum(latencies), "1/s")
        extra["straighten_ms.p50"] = (1000 * percentile(latencies, 0.5), "ms")
        extra["straighten_ms.p90"] = (1000 * percentile(latencies, 0.9), "ms")
    checks = check_totals(samples)
    extra.update({name: (checks[name], "s") for name in CHECK_METRICS if name in checks})
    extra["raw.setup_s"] = (statistics.median(r["raw_setup_s"] for r in setups), "s")
    extra["raw.wall_s"] = (statistics.median(x for s in samples for x in s.raw_latencies), "s")
    extra["calibration_s"] = (
        statistics.median(c for r in setups for c in r["calibration_s"]), "s")
    return gated, extra


# Spanned layers whose call counts are reported beside their self time.
PER_LAYER_CALLS = (
    "springer.localize",
    "springer.straighten_by_solve",
    "springer.straighten_by_rewrite",
    "linalg.solve_rational",
    "linalg.SparseExactRREF.add_row",
    "groebner.buchberger",
    "groebner.normal_form",
)
PER_LAYER_COUNTS = tuple(name for name, _ in COUNTED)
CHECK_METRICS = ("check.straighten_s", "check.kernel_ideal_s", "check.ordinary_s")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in SPANNED}
    units.update({f"{layer}.calls": "count" for layer in PER_LAYER_CALLS + PER_LAYER_COUNTS})
    units["linalg.SparseExactRREF.add_row.rank_ratio"] = "ratio"
    units["groebner.normal_form.zero_ratio"] = "ratio"
    units["groebner.buchberger.basis_len"] = "count"
    units.update({name: "s" for name in CHECK_METRICS})
    units["trace.overhead"] = "ratio"
    return units


def call_counts(report: dict) -> dict[str, int]:
    counts = {layer: report["layers"].get(layer, {}).get("calls", 0) for layer in PER_LAYER_CALLS}
    counts.update({name: report["counts"].get(name, 0) for name in PER_LAYER_COUNTS})
    return counts


def per_layer(untraced, traced) -> dict[str, float]:
    """Per-layer metrics: counts from one traced sample (they repeat
    exactly), self times as medians over the traced samples, and the
    trace overhead as traced over untraced median wall time.  Times are
    in reference-host seconds."""
    first = traced[0].report
    out: dict[str, float] = {}
    for layer in SPANNED:
        out[f"{layer}.self_s"] = statistics.median(
            s.report["layers"].get(layer, {}).get("self_s", 0.0) * s.scale
            for s in traced)
    out.update({f"{name}.calls": value for name, value in call_counts(first).items()})
    rows = out["linalg.SparseExactRREF.add_row.calls"]
    raised = first["outcomes"].get("linalg.SparseExactRREF.add_row", 0)
    out["linalg.SparseExactRREF.add_row.rank_ratio"] = raised / rows if rows else 0.0
    forms = out["groebner.normal_form.calls"]
    zeros = first["outcomes"].get("groebner.normal_form", 0)
    out["groebner.normal_form.zero_ratio"] = zeros / forms if forms else 0.0
    out["groebner.buchberger.basis_len"] = first["sizes"].get("groebner.buchberger", 0)
    checks = check_totals(untraced)
    out.update({name: checks.get(name, 0.0) for name in CHECK_METRICS})
    out["trace.overhead"] = (
        statistics.median(s.wall for s in traced) / statistics.median(s.wall for s in untraced)
    )
    return out


# -- runs --------------------------------------------------------------------


def run_context() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def measure(spec: dict, seed: int, seconds: float, trace: bool, setup_processes: int = SETUP_PROCESSES):
    """Run one workload; returns (attempted, failed, problems, metrics, extra)."""
    samples: list[Sample] = []
    if not trace:
        setups = [spawn(sample_job(spec, seed, 0, 0.0) | {"mode": "setup"})
                  for _ in range(setup_processes)]
        deadline = time.monotonic() + seconds
        batch = 0
        while not samples or time.monotonic() < deadline:
            left = max(0.0, deadline - time.monotonic())
            samples.append(Sample(spec, spawn(sample_job(spec, seed, batch, left))))
            batch += 1
        setups += [s.report for s in samples]
        metrics, extra = end_to_end(spec, setups, samples)
    else:
        # Fixed work per sample, so call counts repeat exactly: the first
        # stream batch of the seed, processed whole, or one verify run.
        # A pair starts only if a pair as long as the last one still fits.
        untraced, traced = [], []
        deadline = time.monotonic() + seconds
        pair_s = 0.0
        SPANS_DIR.mkdir(exist_ok=True)
        while not traced or time.monotonic() + pair_s < deadline:
            started = time.monotonic()
            job = sample_job(spec, seed, 0, math.inf)
            untraced.append(Sample(spec, spawn(job)))
            spans_path = SPANS_DIR / f"spans-{spec['name']}-seed{seed}.jsonl" if not traced else None
            traced.append(Sample(spec, spawn(job | {"trace": True, "spans_path": str(spans_path or "")})))
            pair_s = time.monotonic() - started
        samples = untraced + traced
        if any(call_counts(s.report) != call_counts(traced[0].report) for s in traced):
            print("# warning: call counts differ between traced samples", flush=True)
        metrics, extra = per_layer(untraced, traced), {}
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    problems = [p for s in samples for p in s.problems]
    return attempted, failed, problems, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tworow" / "__init__.py").is_file():
        print(f"error: no tworow sources under {SRC}", file=sys.stderr)
        return 2
    print("# context " + json.dumps(run_context() | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }), flush=True)
    spec = workload_spec(args.workload)
    try:
        attempted, failed, problems, metrics, extra = measure(
            spec, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
