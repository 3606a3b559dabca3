"""Check flow-benchmark reports against ``benchmarks/flow_reference.json``.

Run from the repository root, after writing reports with
``perfbench/run.py --report``:

    python3 perfbench/run.py --workload saturate-test --seed 1 --seconds 0 --trace 1 \\
        --report flow_trace.json
    python3 tools/check_flow_reference.py saturate-test=flow_trace.json

Each argument names a report and the workload it ran.  A report fails when
its run failed its own checks, when a circuit of the workload is missing,
or when any circuit's (area, delay, verdict) differs from the reference in
any bit.  A traced report (``--trace 1``) must also match the reference's
non-time layer metrics exactly; an untraced one must keep ``flow_s`` within
``max_flow_ratio`` times the reference.  The exit code is 0 only when every
report passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "flow_reference.json"


def check_report(workload: str, report: Dict, reference: Dict) -> List[str]:
    """Every way ``report``, a run of ``workload``, differs from ``reference``."""
    expected = reference["workloads"].get(workload)
    if expected is None:
        return [f"{workload}: no reference for this workload"]
    problems = [] if report.get("correct") else [f"{workload}: the run failed its own checks"]
    seen = set()
    for flow in report.get("flows", []):
        name = flow["circuit"]
        seen.add(name)
        got = {key: flow.get(key) for key in ("area", "delay", "verdict")}
        if got != expected["circuits"].get(name):
            problems.append(f"{workload}/{name}: {got} != reference {expected['circuits'].get(name)}")
    for name in sorted(set(expected["circuits"]) - seen):
        problems.append(f"{workload}/{name}: missing from the report")
    metrics = {name: entry["value"] for name, entry in report.get("metrics", {}).items()}
    if "flow_s" in metrics:
        limit = reference["max_flow_ratio"] * expected["flow_s"]
        print(f"{workload}: flow_s {metrics['flow_s']:.3f} s against reference "
              f"{expected['flow_s']:.3f} s (limit {limit:.3f} s)")
        if metrics["flow_s"] > limit:
            problems.append(f"{workload}: flow_s {metrics['flow_s']:.3f} s is above {limit:.3f} s")
    else:
        for name, value in expected.get("counts", {}).items():
            if metrics.get(name) != value:
                problems.append(f"{workload}: {name} {metrics.get(name)} != reference {value}")
    return problems


def main(argv: List[str]) -> int:
    if not argv or any("=" not in arg for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    problems: List[str] = []
    for arg in argv:
        workload, _, path = arg.partition("=")
        problems += check_report(workload, json.loads(Path(path).read_text()), reference)
    for problem in problems:
        print(f"FLOW REFERENCE MISMATCH: {problem}", file=sys.stderr)
    if not problems:
        print(f"{len(argv)} report(s) match {REFERENCE.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
