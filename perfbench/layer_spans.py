"""Per-layer spans and counters, recorded from outside the program.

:func:`instrumented` wraps the public layer entry points that the pass
registry (``repro.pipeline.passes``) calls, for the duration of a ``with``
block.  Each call becomes a :class:`Span` (name, start, end, parent) in a
:class:`Recorder`; a span's self time is its duration minus that of its
direct child spans.  Counters are read off each call's return value, so the
wrappers change no argument and no result.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

#: Per-layer metric name -> unit, in the order the benchmark reports them.
LAYER_METRICS = {
    "engine.saturate_s": "s",
    "engine.iterations": "count",
    "engine.matches": "count",
    "engine.applications": "count",
    "engine.apply_ratio": "ratio",
    "engine.final_nodes": "count",
    "engine.time_limit_stops": "count",
    "extraction.extract_s": "s",
    "extraction.moves": "count",
    "extraction.accept_ratio": "ratio",
    "extraction.cost_gain": "cost",
    "extraction.candidates": "count",
    "mapping.map_aig_s": "s",
    "mapping.map_aig_calls": "count",
    "mapping.gates": "count",
    "opt.dch_s": "s",
    "opt.dch_choices": "count",
    "opt.cleanup_s": "s",
    "verify.cec_s": "s",
    "verify.cec_conflicts": "count",
    "verify.cec_unknown": "count",
    "opt.sop_balance_s": "s",
    "aig.strash_s": "s",
    "conversion.dag2eg_s": "s",
    "conversion.eg2dag_s": "s",
    "pipeline.coverage": "fraction",
    "pipeline.trace_overhead": "ratio",
}

#: Span name of one ``Pipeline.run_flow`` call; every layer span nests in one.
FLOW_SPAN = "flow"


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as a span under the innermost open one."""
        record = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        totals: Dict[str, float] = defaultdict(float)
        for record, children in zip(self.spans, child_time):
            totals[record.name] += record.duration - children
        return totals

    def calls(self, name: str) -> int:
        """How many spans of ``name`` were recorded."""
        return sum(1 for record in self.spans if record.name == name)

    def flow_time(self) -> float:
        """Total duration of the flow spans."""
        return sum(record.duration for record in self.spans if record.name == FLOW_SPAN)

    def covered_time(self) -> float:
        """Time inside layer spans that sit directly under a flow span."""
        return sum(
            record.duration
            for record in self.spans
            if record.parent is not None and self.spans[record.parent].name == FLOW_SPAN
        )


def _count_saturation(counts: Dict[str, float], report) -> None:
    counts["engine.iterations"] += report.num_iterations
    counts["engine.matches"] += report.total_matches
    counts["engine.applications"] += report.total_applications
    counts["engine.final_nodes"] += report.final_nodes
    counts["engine.time_limit_stops"] += report.stop_reason == "time_limit"


def _count_extraction(counts: Dict[str, float], result) -> None:
    profile = result.profile
    counts["extraction.moves"] += profile.total_moves
    counts["extraction.accepted"] += profile.total_accepted
    counts["extraction.cost_gain"] += profile.initial_cost - profile.best_cost
    # The extract pass maps only distinct chain results; count what it maps.
    counts["extraction.candidates"] += len({frozenset(e.items()) for e in result.chain_extractions})


def _count_mapping(counts: Dict[str, float], result) -> None:
    counts["mapping.gates"] += result.num_gates


def _count_choices(counts: Dict[str, float], choice) -> None:
    counts["opt.dch_choices"] += choice.num_choices


def _count_cec(counts: Dict[str, float], result) -> None:
    counts["verify.cec_conflicts"] += result.conflicts
    counts["verify.cec_unknown"] += result.status == "unknown"


def _wrap(recorder: Recorder, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(recorder.counts, result)
        return result

    return traced


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point the pass registry calls, then restore them."""
    from repro.aig.graph import Aig
    from repro.pipeline import passes

    targets = [
        (passes.SaturationEngine, "run", "engine.saturate", _count_saturation),
        (passes, "portfolio_extract", "extraction.extract", _count_extraction),
        (passes, "map_aig", "mapping.map_aig", _count_mapping),
        (passes, "compute_choices", "opt.dch", _count_choices),
        (passes, "balance", "opt.cleanup", None),
        (passes, "rewrite", "opt.cleanup", None),
        (passes, "check_equivalence", "verify.cec", _count_cec),
        (passes, "sop_balance", "opt.sop_balance", None),
        (Aig, "strash", "aig.strash", None),
        (passes, "aig_to_egraph", "conversion.dag2eg", None),
        (passes, "extraction_to_aig", "conversion.eg2dag", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    for (owner, attr, name, count), (_, _, fn) in zip(targets, originals):
        setattr(owner, attr, _wrap(recorder, name, fn, count))
    try:
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def layer_metrics(recorder: Recorder, passes: int, untraced_flow_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per pass over the workload."""
    self_time = recorder.self_times()
    counts = recorder.counts
    flow_s = recorder.flow_time()
    per_pass = {
        "engine.saturate_s": self_time["engine.saturate"],
        "engine.iterations": counts["engine.iterations"],
        "engine.matches": counts["engine.matches"],
        "engine.applications": counts["engine.applications"],
        "engine.final_nodes": counts["engine.final_nodes"],
        "engine.time_limit_stops": counts["engine.time_limit_stops"],
        "extraction.extract_s": self_time["extraction.extract"],
        "extraction.moves": counts["extraction.moves"],
        "extraction.cost_gain": counts["extraction.cost_gain"],
        "extraction.candidates": counts["extraction.candidates"],
        "mapping.map_aig_s": self_time["mapping.map_aig"],
        "mapping.map_aig_calls": recorder.calls("mapping.map_aig"),
        "mapping.gates": counts["mapping.gates"],
        "opt.dch_s": self_time["opt.dch"],
        "opt.dch_choices": counts["opt.dch_choices"],
        "opt.cleanup_s": self_time["opt.cleanup"],
        "verify.cec_s": self_time["verify.cec"],
        "verify.cec_conflicts": counts["verify.cec_conflicts"],
        "verify.cec_unknown": counts["verify.cec_unknown"],
        "opt.sop_balance_s": self_time["opt.sop_balance"],
        "aig.strash_s": self_time["aig.strash"],
        "conversion.dag2eg_s": self_time["conversion.dag2eg"],
        "conversion.eg2dag_s": self_time["conversion.eg2dag"],
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    matches = counts["engine.matches"]
    moves = counts["extraction.moves"]
    metrics["engine.apply_ratio"] = counts["engine.applications"] / matches if matches else 0.0
    metrics["extraction.accept_ratio"] = counts["extraction.accepted"] / moves if moves else 0.0
    metrics["pipeline.coverage"] = recorder.covered_time() / flow_s if flow_s else 0.0
    metrics["pipeline.trace_overhead"] = flow_s / untraced_flow_s if untraced_flow_s else 0.0
    return {name: metrics[name] for name in LAYER_METRICS}
