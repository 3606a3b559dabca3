"""Whole-flow benchmark of the E-morphic reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload emorphic-bench --seed 1 --seconds 10 --trace 0

Each invocation runs one workload (see ``flow_workloads.py``) in this single
process: every flow runs inline through ``repro.pipeline.Pipeline.run_flow``,
with no worker pool, result store or ledger.  The benchmark runs whole passes
over the workload's circuits until ``--seconds`` have elapsed (at least one
pass) and checks every flow:

* the flow must not raise;
* its ``cec`` verdict must be ``equivalent``;
* the mapped netlist must match the input circuit in the benchmark's own
  simulation (``netlist_sim.py``), on input words drawn from ``--seed``;
* saturation must not have stopped on its time limit;
* a circuit's QoR must not change from one flow to the next.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every flow
once untraced and once traced (``layer_spans.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.  ``--report PATH`` also writes per-circuit QoR,
verdicts and all metrics to ``PATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from flow_workloads import WORKLOADS, Workload
from layer_spans import FLOW_SPAN, LAYER_METRICS, Recorder, instrumented, layer_metrics
from netlist_sim import netlist_problems

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

#: Fresh processes whose set-up time is measured; ``setup_s`` is their median.
SETUP_PROBES = 5

#: A traced run fails when less of the flow time than this lands in layer spans.
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "area_geomean": "um2",
    "delay_geomean": "ps",
    "verified_ratio": "fraction",
}


@dataclass
class FlowOutcome:
    """One checked flow: its wall time, QoR and every failed check."""

    circuit: str
    seconds: float
    area: Optional[float] = None
    delay: Optional[float] = None
    verdict: Optional[str] = None
    stop_reason: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def qor(self) -> Tuple[Optional[float], Optional[float], Optional[str]]:
        return (self.area, self.delay, self.verdict)


def set_up(workload: Workload, seed: int):
    """Everything a flow needs: imports, the cell library, pipeline, circuits."""
    from repro.benchgen import build
    from repro.mapping.library import asap7_like_library
    from repro.pipeline.pipeline import Pipeline

    library = asap7_like_library()
    pipeline = Pipeline.from_script(workload.script(seed))
    circuits = [(name, build(name, preset=workload.preset)) for name in workload.circuits]
    return library, pipeline, circuits


def measure_setup(workload: Workload, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to the end of
    :func:`set_up`, over :data:`SETUP_PROBES` processes."""
    times = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", workload.name, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            probe.wait(timeout=120)
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit code {probe.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def checked_flow(pipeline, name: str, aig, library, seed: int, recorder: Optional[Recorder] = None) -> FlowOutcome:
    """Run one flow, timing only ``run_flow``, then check its result."""
    gc.collect()  # start every flow from a collected heap, outside the timing
    start = time.perf_counter()
    try:
        if recorder is None:
            result = pipeline.run_flow(aig, library=library)
        else:
            with recorder.span(FLOW_SPAN):
                result = pipeline.run_flow(aig, library=library)
    except Exception as exc:  # a flow that raises is a failed operation, not a crash
        return FlowOutcome(name, time.perf_counter() - start, problems=[f"flow raised {exc!r}"])
    outcome = FlowOutcome(name, time.perf_counter() - start)
    if result.equivalence is not None:
        outcome.verdict = result.equivalence.status
    if result.rewrite_report is not None:
        outcome.stop_reason = result.rewrite_report.stop_reason
    if outcome.verdict != "equivalent":
        outcome.problems.append(f"cec verdict is {outcome.verdict}")
    if outcome.stop_reason == "time_limit":
        outcome.problems.append("saturation stopped on its time limit")
    if result.mapping is None:
        outcome.problems.append("flow produced no mapped netlist")
    else:
        outcome.area = result.mapping.area
        outcome.delay = result.mapping.delay
        outcome.problems.extend(netlist_problems(aig, result.mapping.netlist, seed))
    return outcome


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Set up, run passes for ``seconds``, and collect outcomes and metrics."""
    setup_s = measure_setup(workload, seed) if not trace else None
    library, pipeline, circuits = set_up(workload, seed)
    recorder = Recorder()
    outcomes: List[FlowOutcome] = []
    pass_seconds: List[float] = []
    start = time.perf_counter()
    while not pass_seconds or time.perf_counter() - start < seconds:
        total = 0.0
        for name, aig in circuits:
            outcome = checked_flow(pipeline, name, aig, library, seed)
            outcomes.append(outcome)
            total += outcome.seconds
            if trace:
                with instrumented(recorder):
                    traced = checked_flow(pipeline, name, aig, library, seed, recorder)
                outcomes.append(traced)
        pass_seconds.append(total)

    first: Dict[str, FlowOutcome] = {}
    for outcome in outcomes:
        reference = first.setdefault(outcome.circuit, outcome)
        if outcome.qor != reference.qor:
            outcome.problems.append(f"QoR {outcome.qor} differs from an earlier flow's {reference.qor}")
    failed = sum(1 for outcome in outcomes if outcome.problems)
    correct = failed == 0

    if trace:
        metrics = layer_metrics(recorder, len(pass_seconds), sum(pass_seconds))
        units = LAYER_METRICS
        if metrics["pipeline.coverage"] < MIN_COVERAGE:
            correct = False
            print(f"perfbench: pipeline.coverage {metrics['pipeline.coverage']:.3f} is below "
                  f"{MIN_COVERAGE}; a layer is missing from the span list", file=sys.stderr)
    else:
        mapped = [first[name] for name, _ in circuits if first[name].area]
        metrics = {
            "flow_s": statistics.median(pass_seconds),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "area_geomean": geomean([outcome.area for outcome in mapped]),
            "delay_geomean": geomean([outcome.delay for outcome in mapped]),
            "verified_ratio": (len(outcomes) - failed) / len(outcomes),
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "flows": [outcome.__dict__ for outcome in outcomes],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write per-circuit results to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SOURCES / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        set_up(workload, args.seed)
        print("ready", flush=True)
        return 0

    report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
    for outcome in report["flows"]:
        for problem in outcome["problems"]:
            print(f"perfbench: {outcome['circuit']}: {problem}", file=sys.stderr)
    summary = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
