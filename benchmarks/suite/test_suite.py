"""Self-test of the benchmark in smoke mode (12-16 node rings, one timed op).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

#: a deliberately wrong pin: the n=12 sequential phase space has 324 fixed points
WRONG_PIN = "exact_lemma1.sequential_fixed_points=325"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """The whole smoke suite, run with one wrong pinned count."""
    out = tmp_path_factory.mktemp("suite") / "results.json"
    proc = _run("--out", str(out), "--pin", WRONG_PIN)
    return proc, json.loads(out.read_text()), out.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_suite_prints_every_end_to_end_metric(suite):
    proc, report, _ = suite
    printed = {
        (parts[0], parts[1]): parts[3]
        for parts in map(str.split, proc.stdout.splitlines())
        if len(parts) == 4
    }
    for name in NAMES:
        for m in SPEC["end_to_end"]:
            assert printed[(name, m["name"])] == m["unit"]
            assert report["workloads"][name]["metrics"][m["name"]]["value"] > 0


def test_wrong_pin_raises_error_rate_without_crashing(suite):
    proc, report, _ = suite
    assert proc.returncode == 1
    assert "exact_lemma1: op 1 failed: sequential_fixed_points = 324" in proc.stderr
    exact = report["workloads"]["exact_lemma1"]
    # warm-up, the timed op and the re-run all completed and all failed
    assert exact["attempted"] == exact["failed"] == 3
    assert exact["error_rate"] == 1.0
    assert "exact_lemma1 error_rate 1 ratio" in proc.stdout.splitlines()
    for name in NAMES[:-1]:
        assert report["workloads"][name]["error_rate"] == 0


def test_traced_self_times_fit_in_the_op(suite):
    _, _, out_dir = suite
    for name in NAMES:
        trace = json.loads((out_dir / f"trace_{name}.json").read_text())
        fields = trace["span_fields"]
        spans = [dict(zip(fields, s)) for s in trace["spans"]]
        assert spans and all(s["self_s"] >= -1e-9 for s in spans)
        for op_id, op in enumerate(trace["per_op"], start=1):
            own = sum(s["self_s"] for s in spans if s["op"] == op_id)
            assert own <= op["trace.op_wall_s"] + 1e-9
            assert 0.9 <= op["trace.accounted_frac"] <= 1.0 + 1e-9
