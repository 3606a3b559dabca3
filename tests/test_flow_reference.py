"""Tests of the flow-benchmark gate, ``tools/check_flow_reference.py``.

Every report here is a synthetic dict built from the checked-in
``benchmarks/flow_reference.json``; no flow runs.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_flow_reference", ROOT / "tools" / "check_flow_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
REFERENCE = json.loads(checker.REFERENCE.read_text())


def _report(workload, traced):
    """A report of ``workload`` that matches the reference exactly."""
    expected = REFERENCE["workloads"][workload]
    flows = [dict(circuit=name, **qor) for name, qor in expected["circuits"].items()]
    if traced:
        metrics = {name: {"value": value} for name, value in expected.get("counts", {}).items()}
    else:
        metrics = {"flow_s": {"value": expected["flow_s"], "unit": "s"}}
    return {"correct": True, "flows": flows, "metrics": metrics}


def _check(workload, report):
    return checker.check_report(workload, report, REFERENCE)


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
@pytest.mark.parametrize("traced", [True, False])
def test_reference_passes_against_itself(workload, traced):
    assert _check(workload, _report(workload, traced)) == []


def test_reference_gates_the_saturate_test_counts():
    counts = REFERENCE["workloads"]["saturate-test"]["counts"]
    assert {name.split(".")[0] for name in counts} == {"engine", "extraction", "mapping", "verify"}
    assert not any(name.endswith("_s") for name in counts)


def test_area_one_ulp_off_fails():
    report = _report("baseline-bench", traced=False)
    flow = report["flows"][0]
    flow["area"] = math.nextafter(flow["area"], math.inf)
    problems = _check("baseline-bench", report)
    assert len(problems) == 1 and flow["circuit"] in problems[0]


def test_unknown_verdict_fails():
    report = _report("saturate-test", traced=True)
    report["flows"][0]["verdict"] = "unknown"
    assert _check("saturate-test", report)


def test_count_drift_fails():
    report = _report("saturate-test", traced=True)
    report["metrics"]["engine.matches"]["value"] += 1
    problems = _check("saturate-test", report)
    assert len(problems) == 1 and "engine.matches" in problems[0]


def test_flow_s_above_twice_the_reference_fails():
    report = _report("saturate-test", traced=False)
    reference_s = REFERENCE["workloads"]["saturate-test"]["flow_s"]
    report["metrics"]["flow_s"]["value"] = 1.99 * reference_s
    assert _check("saturate-test", report) == []
    report["metrics"]["flow_s"]["value"] = 2.01 * reference_s
    assert _check("saturate-test", report)


def test_missing_circuit_fails():
    report = _report("baseline-bench", traced=False)
    missing = report["flows"].pop()["circuit"]
    problems = _check("baseline-bench", report)
    assert len(problems) == 1 and missing in problems[0]


def test_failed_run_and_unknown_workload_fail():
    report = _report("baseline-bench", traced=False)
    report["correct"] = False
    assert _check("baseline-bench", report)
    assert _check("no-such-workload", _report("baseline-bench", traced=False))
