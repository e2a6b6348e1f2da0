"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    emitted = list(run.END_TO_END_UNITS) + list(run.per_layer_units())
    for name in emitted + [w for w in run.WORKLOADS]:
        assert NAME.fullmatch(name), name
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 11.0, 12.0, -1],
    ]
    times = tracer.self_times(spans)
    assert times["root"] == (1, pytest.approx(3.0))
    assert times["a"] == (2, pytest.approx(2.0 + 1.0))
    assert times["c"] == (1, pytest.approx(1.0))
    assert times["b"] == (1, pytest.approx(4.0))
    total_self = sum(secs for _, secs in times.values())
    assert total_self == pytest.approx(10.0 + 1.0)  # the two root intervals


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 5.0, 0]]
    assert tracer.self_times(spans)["p"] == (1, pytest.approx(1.0))


def test_verify_verdict_does_not_trust_the_report():
    spec = run.workload_spec("ordinary-n6", tiny=True)
    entries = [
        {"name": f"{c}[n={n},k={k}]", "status": "pass",
         "details": f"dim {run.math.comb(n, k)} (expected {run.math.comb(n, k)})", "elapsed_ms": 1}
        for c, n, k in run.expected_entries(spec)
    ]
    good = json.dumps({"checks": entries})
    assert run.verify_verdict(spec, 0, good)[1] == []
    entries[-1]["details"] = "dim 7 (expected 7)"  # C(4,2) is 6
    bad = json.dumps({"checks": entries[1:]})
    attempted, problems, _ = run.verify_verdict(spec, 0, bad)
    assert attempted == len(run.expected_entries(spec))
    assert len(problems) == 2  # the dropped entry and the wrong dimension
    assert run.verify_verdict(spec, 1, good)[1] == ["verify exited 1"]


def test_stream_inputs_depend_only_on_seed_and_batch():
    assert run.stream_texts(5, 0, 4, 7) == run.stream_texts(5, 0, 4, 7)
    assert run.stream_texts(5, 0, 4, 7) != run.stream_texts(6, 0, 4, 7)
    assert run.stream_texts(5, 0, 4, 7) != run.stream_texts(5, 1, 4, 7)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_passes_its_verdict_checks(workload, trace):
    spec = run.workload_spec(workload, tiny=True)
    assert spec.get("n_max", spec.get("n")) <= 4
    attempted, failed, problems, metrics, _ = run.measure(
        spec, seed=3, seconds=0.05, trace=trace, setup_processes=1)
    assert attempted >= 1 and failed == 0, problems
    expected = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert set(metrics) == set(expected)
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif spec["mode"] == "stream":
        # springer binds solve_rational by name; the patch must reach it
        assert metrics["linalg.solve_rational.calls"] > 0
        assert metrics["polynomials.parse_poly.self_s"] > 0
