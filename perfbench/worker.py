"""One fresh interpreter of the benchmark: set up, run one sample, report.

The parent (``run.py``) writes a JSON job to stdin and reads one JSON
report from stdout.  tworow is imported from the checkout's ``src``
directory and driven only through ``tworow.cli.main`` and the names
``tworow/__init__.py`` exports.  Set-up ends when tworow is imported and
the job's inputs are parsed; ``ready_clock`` is taken from the
system-wide monotonic clock so the parent can subtract its spawn time.

Every job calibrates (``calibrate.py``) after set-up and again after its
sample, and the stream also after every CALIBRATE_EVERY polynomials, so
the parent can scale each time by the calibrations around it.

Job modes:
  setup   -- set up and stop;
  verify  -- run ``tworow.cli.main(argv)`` once, capture its output;
  stream  -- straighten polynomials by both routes until ``stop_after_s``
             has passed or the inputs run out, checking each result
             outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY = 5


def _import_tworow(src: str):
    sys.path.insert(0, src)
    import tworow
    import tworow.cli

    where = os.path.realpath(tworow.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported tworow from {where}, not from {src}")
    return tworow


def _run_verify(tworow, job) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = tworow.cli.main(job["argv"])
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "output": out.getvalue()}


def _stream_verdict(tworow, ctx, poly, text, names, solved, rewritten) -> list[str]:
    problems = []
    if tworow.format_poly(poly, names) != text:
        problems.append("canonical text does not round-trip")
    if solved != rewritten:
        problems.append("straightening routes disagree")
    residue = tworow.basis_combination(solved, ctx) - poly
    if any(tworow.localize_all(residue, ctx).values()):
        problems.append("solve route is not congruent to the input")
    return problems


def _run_stream(tworow, job, polys, untraced, calibrations, calibrate) -> dict:
    """Straighten until the inputs run out or stop_after_s has passed.
    Polynomial i lies between calibrations groups[i] and groups[i] + 1."""
    ctx = tworow.SpringerContext(job["n"], job["k"])
    names = tworow.variable_names(ctx.n)
    stop_at = time.perf_counter() + job["stop_after_s"]
    latencies, groups, failures = [], [], []
    for i, (text, poly) in enumerate(zip(job["texts"], polys)):
        if i and i % CALIBRATE_EVERY == 0:
            calibrations.append(calibrate())
        groups.append(len(calibrations) - 1)
        start = time.perf_counter()
        solved = tworow.straighten_by_solve(poly, ctx)
        rewritten = tworow.straighten_by_rewrite(poly, ctx)
        latencies.append(time.perf_counter() - start)
        with untraced():
            problems = _stream_verdict(tworow, ctx, poly, text, names, solved, rewritten)
        failures.extend(f"{problem}: {text}" for problem in problems)
        if time.perf_counter() >= stop_at:
            break
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "groups": groups,
        "attempted": len(latencies),
        "failures": failures,
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    tworow = _import_tworow(job["src"])
    sys.path.insert(0, HERE)
    from calibrate import calibrate

    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    polys = []
    if "texts" in job:
        names = tworow.variable_names(job["n"])
        polys = [tworow.parse_poly(text, names) for text in job["texts"]]
    report = {"ready_clock": time.monotonic(), "calibration_s": [calibrate()]}
    if job["mode"] == "verify":
        report.update(_run_verify(tworow, job))
    elif job["mode"] == "stream":
        untraced = tracer.paused if tracer is not None else contextlib.nullcontext
        report.update(_run_stream(tworow, job, polys, untraced, report["calibration_s"], calibrate))
    if job["mode"] != "setup":
        report["calibration_s"].append(calibrate())
    if tracer is not None:
        report["layers"] = {
            name: {"calls": calls, "self_s": secs}
            for name, (calls, secs) in tracing.self_times(tracer.spans).items()
        }
        report["counts"] = dict(tracer.counts)
        report["outcomes"] = dict(tracer.outcomes)
        report["sizes"] = dict(tracer.sizes)
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
