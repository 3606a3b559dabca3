"""The scalable saturation engine.

The repo's one equality-saturation loop: batched e-matching, egg-style rule
scheduling (simple / backoff), cross-iteration match deduplication,
worklist-driven incremental rebuilds, and full saturation telemetry.
``SaturationEngine(..., scheduler="simple", dedup_matches=False)`` is the
plain egg-style loop: every rule every iteration, every match applied.

There is one e-matcher: :class:`BatchedMatcher` compiles all rule patterns
into one shared-prefix trie and walks it over class views built from
``EClass.nodes`` — one e-graph traversal per iteration total.
"""

from repro.engine.batched import BatchedMatcher, compile_pattern, priorities_from_attribution
from repro.engine.engine import EngineLimits, SaturationEngine
from repro.engine.scheduler import (
    SCHEDULERS,
    BackoffScheduler,
    Scheduler,
    SimpleScheduler,
    make_scheduler,
)
from repro.engine.telemetry import IterationReport, RuleProfile, SaturationProfile

__all__ = [
    "SaturationEngine",
    "EngineLimits",
    "BatchedMatcher",
    "compile_pattern",
    "priorities_from_attribution",
    "Scheduler",
    "SimpleScheduler",
    "BackoffScheduler",
    "make_scheduler",
    "SCHEDULERS",
    "SaturationProfile",
    "IterationReport",
    "RuleProfile",
]
