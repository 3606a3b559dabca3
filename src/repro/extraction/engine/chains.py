"""Portfolio chains: the per-island move loops of the extraction engine.

A chain is one island of the portfolio — simulated annealing under a
per-chain schedule, a zero-temperature hill climber, or a random-restart
annealer.  Chains run in *rounds* of ``migrate_every`` moves: a round
advances one :class:`ChainState` in place — the state carries the choice,
the chain's own ``random.Random``, and the telemetry counters — and every
round rebuilds its working state from the bare choice, so a migration
between rounds only has to swap the choice.

What a round rebuilds is only what depends on the choice: one topological
walk, the root-reachable set, cycle-safe flip candidates for the reachable
classes (the only ones it flips), and the cost evaluator.  Everything that
depends on the e-graph alone — candidates, costs, the ``users`` index —
lives in the :class:`FrozenProblem`, built once per extraction.

Chain kinds:

* ``"sa"``      — Metropolis acceptance with geometric cooling
  (``T *= cooling`` per move);
* ``"greedy"``  — accept improving flips only (T = 0 hill climbing);
* ``"restart"`` — annealing that re-seeds from a fresh random extraction
  after ``restart_after`` moves without improvement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.extraction.engine.delta import DeltaCostEvaluator, choice_cost
from repro.extraction.engine.problem import Choice, FrozenProblem
from repro.extraction.engine.telemetry import ChainProfile
from repro.obs import trace as obs

CHAIN_KINDS = ("sa", "greedy", "restart")


@dataclass(frozen=True)
class ChainSpec:
    """Static configuration of one chain (its slot in the portfolio)."""

    kind: str = "sa"
    initial: str = "greedy"  # "greedy" | "random" | "seed"
    temperature: float = 8.0
    cooling: float = 0.97
    restart_after: int = 48  # kind="restart": stale moves before re-seeding

    def __post_init__(self) -> None:
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"unknown chain kind {self.kind!r}; choose from {CHAIN_KINDS}")


@dataclass
class ChainState:
    """Everything a chain carries between rounds."""

    spec: ChainSpec
    seed: int
    choice: Choice
    current_cost: float
    best_choice: Choice
    best_cost: float
    temperature: float
    rng: random.Random
    since_improvement: int = 0
    profile: ChainProfile = field(default_factory=lambda: ChainProfile(chain_id=0))


def init_chain(
    problem: FrozenProblem,
    spec: ChainSpec,
    seed: int,
    chain_id: int = 0,
    seed_choice: Optional[Choice] = None,
    greedy: Optional[Choice] = None,
) -> ChainState:
    """Build a chain's initial state from its spec and derived seed.

    ``greedy`` lets the caller share one greedy solve across chains.  A
    ``"seed"`` start overlays the supplied seed choice on the greedy base;
    if the overlay turns out cyclic (saturation can merge original classes),
    the chain falls back to the pure greedy solution.
    """
    rng = random.Random(seed)
    base = greedy if greedy is not None else problem.greedy_choice()
    if spec.initial == "random":
        choice = problem.random_choice(rng, fallback=base)
    elif spec.initial == "seed" and seed_choice:
        choice = {**base, **seed_choice}
        try:
            problem.toposort(choice)
        except ValueError:
            choice = dict(base)
    else:
        choice = dict(base)
    cost = choice_cost(problem, choice)
    profile = ChainProfile(
        chain_id=chain_id,
        kind=spec.kind,
        seed=seed,
        initial_cost=cost,
        best_cost=cost,
        final_cost=cost,
        best_curve=[cost],
    )
    return ChainState(
        spec=spec,
        seed=seed,
        choice=choice,
        current_cost=cost,
        best_choice=dict(choice),
        best_cost=cost,
        temperature=spec.temperature,
        rng=rng,
        profile=profile,
    )


def _flippable(
    problem: FrozenProblem, choice: Choice, order: Dict[int, int]
) -> Tuple[List[int], Dict[int, List[int]]]:
    """Classes worth proposing flips on, and their cycle-safe candidates.

    A class qualifies when it is reachable from the roots under the current
    choice AND has a cycle-safe alternative — flipping an unreachable class
    cannot change the cost, so the budget concentrates on classes the
    objective can see.  Candidates are derived for the reachable classes
    only (a few hundred of the e-graph's thousands); a class that drops out
    of reach mid-round keeps its candidates, which stay cycle-safe under
    ``order``.  Recomputed per round (reachability drifts as flips land),
    deterministic (ascending class ids)."""
    reachable = problem.reachable(choice)
    safe = problem.flip_candidates(order, reachable)
    return [cid for cid in sorted(reachable) if len(safe[cid]) > 1], safe


def run_round(problem: FrozenProblem, state: ChainState, moves: int) -> None:
    """Advance one chain by ``moves`` flips, updating ``state`` in place.

    Rebuilds the topological order, the cycle-safe flip candidates, and the
    cost evaluator from ``state.choice`` and draws from the chain's own rng,
    so a round depends on nothing but the state it advances.  The round's
    span (``chain round``, tagged with chain id and kind) is both the
    profile's wall-clock source and the per-chain level of the trace tree.
    """
    round_span = obs.span(
        "chain round",
        category="extraction.chain",
        chain=state.profile.chain_id,
        kind=state.spec.kind,
    )
    with round_span:
        spec = state.spec
        rng = state.rng

        order = problem.toposort(state.choice)
        flippable, safe = _flippable(problem, state.choice, order)
        evaluator = DeltaCostEvaluator(problem, state.choice, order=order)
        current = evaluator.cost

        best_choice = state.best_choice
        best_cost = state.best_cost
        temperature = state.temperature
        since_improvement = state.since_improvement
        accepted = rejected = uphill = restarts = executed = 0

        for _ in range(moves if flippable else 0):
            executed += 1
            cid = flippable[rng.randrange(len(flippable))]
            old_idx = evaluator.choice[cid]
            alternatives = safe[cid]
            # Draw among the other cycle-safe candidates of the class.
            pick = alternatives[rng.randrange(len(alternatives) - 1)]
            if pick == old_idx:
                pick = alternatives[-1]
            new_cost = evaluator.flip(cid, pick)
            delta = new_cost - current
            take = delta <= 0
            if not take and spec.kind != "greedy" and temperature > 0:
                take = rng.random() < math.exp(-delta / temperature)
                if take:
                    uphill += 1
            if take:
                current = new_cost
                accepted += 1
                if current < best_cost:
                    best_cost = current
                    best_choice = dict(evaluator.choice)
                    since_improvement = 0
                else:
                    since_improvement += 1
            else:
                evaluator.flip(cid, old_idx)
                rejected += 1
                since_improvement += 1
            if spec.kind != "greedy":
                temperature *= spec.cooling
            if spec.kind == "restart" and since_improvement >= spec.restart_after:
                # Re-seed from a fresh random extraction: new order, new cones.
                restarts += 1
                since_improvement = 0
                temperature = spec.temperature
                fresh = problem.random_choice(rng, fallback=best_choice)
                order = problem.toposort(fresh)
                flippable, safe = _flippable(problem, fresh, order)
                evals, touched = evaluator.evals, evaluator.touched
                evaluator = DeltaCostEvaluator(problem, fresh, order=order)
                evaluator.evals, evaluator.touched = evals, touched
                current = evaluator.cost
                if current < best_cost:
                    best_cost = current
                    best_choice = dict(fresh)
                if not flippable:
                    break

        round_span.set("moves", executed)
        round_span.set("accepted", accepted)
        round_span.set("rejected", rejected)
        round_span.set("uphill", uphill)
        round_span.set("restarts", restarts)
        round_span.set("best_cost", best_cost)
    state.choice = evaluator.choice
    state.current_cost = current
    state.best_choice = best_choice
    state.best_cost = best_cost
    state.temperature = temperature
    state.since_improvement = since_improvement
    profile = state.profile
    profile.best_cost = best_cost
    profile.final_cost = current
    profile.moves += executed
    profile.accepted += accepted
    profile.rejected += rejected
    profile.uphill += uphill
    profile.restarts += restarts
    profile.evals += evaluator.evals
    profile.classes_touched += evaluator.touched
    profile.wall_time += round_span.duration
    profile.best_curve.append(best_cost)
    profile.accept_curve.append(accepted)
    profile.reject_curve.append(rejected)


def adopt_solution(state: ChainState, choice: Choice, cost: float) -> None:
    """Island migration: replace the chain's *current* solution in place.

    The chain keeps its rng, schedule, and its own best-so-far bookkeeping
    (the portfolio tracks the global best separately); the next round rebuilds
    order and evaluator state from the adopted choice.
    """
    state.profile.migrations_received += 1
    if cost < state.best_cost:
        state.best_choice, state.best_cost = dict(choice), cost
    state.choice = dict(choice)
    state.current_cost = cost
    state.since_improvement = 0
