"""Observer buffers across process pools: worker-side capture, parent merge.

A forked pool worker inherits copies of the parent's tracer, provenance
recorder, metrics registry and resource sampler, but whatever it appends to
those copies never reaches the parent.  So every pool task (a campaign job,
a partition window) runs under :func:`capture`, which installs *fresh*
worker-local observers for the ones the parent has installed and hands back
their exported buffers; the parent grafts them into its own observers with
:func:`merge` at the barrier that collects the task's result.

This module is the only place that enters ``tracing()`` / ``recording()`` /
``sampling()`` and resets the metrics registry on behalf of a pool worker.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import provenance as obs_provenance
from repro.obs import resource as obs_resource
from repro.obs import trace as obs_trace

#: The buffer names :func:`capture` fills and :func:`merge` reads.
BUFFER_KEYS = ("trace", "provenance", "metrics", "resource")


def installed() -> Tuple[bool, bool, bool]:
    """``(traced, provenance, sampled)``: which observers this process has
    installed — the flags a pool task carries to :func:`capture`."""
    return (
        obs_trace.tracing_enabled(),
        obs_provenance.recording_enabled(),
        obs_resource.sampling_enabled(),
    )


@contextmanager
def capture(
    traced: bool = False, provenance: bool = False, sampled: bool = False
) -> Iterator[Dict[str, object]]:
    """Run one pool task under fresh worker-local observers.

    Swaps in a fresh metrics registry first (pool processes are reused
    across tasks, so shipping a cumulative registry would count earlier
    tasks twice), then installs a fresh tracer, provenance recorder and
    resource sampler for each flag set.  When the block exits cleanly, the
    yielded dict holds the registry's and each installed observer's
    exported buffer under its :data:`BUFFER_KEYS` name.
    """
    registry = obs_metrics.reset_registry()
    buffers: Dict[str, object] = {}
    with ExitStack() as stack:
        tracer = stack.enter_context(obs_trace.tracing()) if traced else None
        recorder = stack.enter_context(obs_provenance.recording()) if provenance else None
        sampler = stack.enter_context(obs_resource.sampling()) if sampled else None
        yield buffers
    buffers["metrics"] = registry.export()
    if tracer is not None:
        buffers["trace"] = tracer.export()
    if recorder is not None:
        buffers["provenance"] = recorder.export()
    if sampler is not None:
        buffers["resource"] = sampler.export()


def merge(buffers: Dict[str, object], **stamp) -> None:
    """Graft a task's buffers into this process's installed observers.

    Spans land under the currently open span; counters sum into the
    registry.  ``stamp`` tags (e.g. ``window=3``) go onto every merged span,
    provenance record and resource sample — the latter two keep a tag the
    worker already applied.  Missing or empty buffers, and buffers whose
    observer is not installed here, are skipped.
    """
    tracer = obs_trace.current_tracer()
    if buffers.get("trace") and tracer is not None:
        tracer.merge(buffers["trace"], **stamp)
    recorder = obs_provenance.current_recorder()
    if buffers.get("provenance") and recorder is not None:
        recorder.merge(buffers["provenance"], **stamp)
    if buffers.get("metrics"):
        obs_metrics.registry().merge(buffers["metrics"])
    sampler = obs_resource.current_sampler()
    if buffers.get("resource") and sampler is not None:
        sampler.merge(buffers["resource"], **stamp)
