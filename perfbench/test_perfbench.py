"""The flow benchmark's own tests.

Run from the repository root (they are outside the default test paths; the
determinism guards run every workload in fresh processes and take minutes):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flow_workloads import WORKLOADS
from netlist_sim import netlist_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _mapped_adder():
    from repro.benchgen import build
    from repro.mapping.cut_mapping import map_aig

    aig = build("adder", preset="test")
    return aig, map_aig(aig).netlist


def test_netlist_simulation_accepts_a_correct_mapping():
    aig, netlist = _mapped_adder()
    assert netlist_problems(aig, netlist, seed=3) == []


def test_netlist_simulation_catches_a_wrong_gate():
    from dataclasses import replace

    aig, netlist = _mapped_adder()
    inst = next(inst for inst in netlist.gates if inst.gate.num_inputs >= 2)
    mask = (1 << (1 << inst.gate.num_inputs)) - 1
    inst.gate = replace(inst.gate, truth=inst.gate.truth ^ mask)
    assert netlist_problems(aig, netlist, seed=3)


def _run(workload: str, hash_seed: str, report: Path, trace: int = 1, cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0", "--trace", str(trace), "--report", str(report)]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def _counts(report: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in report["metrics"].items()
        if name.startswith(("engine.", "extraction.")) and not name.endswith("_s")
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_processes_agree_and_tracing_changes_no_result(workload, tmp_path):
    reports = []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"hash{hash_seed}.json"
        done = _run(workload, hash_seed, path)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(path.read_text()))
    first, second = reports
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert first["metrics"]["engine.time_limit_stops"]["value"] == 0
    assert first["metrics"]["pipeline.coverage"]["value"] >= 0.9
    # Each report holds one untraced and one traced flow per circuit; all
    # four flows of a circuit must give the same QoR and verdict.
    qor = {}
    for flow in first["flows"] + second["flows"]:
        qor.setdefault(flow["circuit"], set()).add((flow["area"], flow["delay"], flow["verdict"]))
    assert sorted(qor) == sorted(WORKLOADS[workload].circuits)
    assert all(len(results) == 1 for results in qor.values()), qor


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("saturate-test", "0", tmp_path / "report.json", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
