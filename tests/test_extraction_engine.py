"""Tests of the extraction engine: frozen problem, delta-cost parity,
portfolio determinism, migration and telemetry."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.simulate import random_simulate
from repro.benchgen import control, epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.conversion.eg2dag import extraction_to_aig
from repro.egraph.language import AND, NOT, OR, VAR
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.extraction.cost import DepthCost, NodeCountCost, OperatorCost, extraction_cost
from repro.extraction.engine import (
    ChainSpec,
    DeltaCostEvaluator,
    ExtractionProfile,
    FrozenProblem,
    PortfolioConfig,
    chain_seed,
    choice_cost,
    init_chain,
    portfolio_extract,
    run_round,
)
from repro.extraction.engine import chains as engine_chains
from repro.extraction.greedy import greedy_extract

from oracles import FullCostEvaluator, sweep_greedy_choice, sweep_random_choice


@pytest.fixture(scope="module")
def saturated_circuit():
    """A saturated e-graph of a small circuit, shared across engine tests."""
    aig = epfl.build("sqrt", preset="test")
    circuit = aig_to_egraph(aig)
    SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=10_000, time_limit=20.0),
    ).run()
    return aig, circuit


def _random_saturated(seed: int):
    """A randomized circuit (varying seed) saturated into a choice-rich e-graph."""
    aig = control.random_control(num_inputs=10, num_outputs=6, terms_per_output=4, seed=seed)
    circuit = aig_to_egraph(aig)
    SaturationEngine(
        circuit.egraph,
        boolean_rules(),
        EngineLimits(max_iterations=2, max_nodes=4_000, time_limit=10.0),
    ).run()
    return aig, circuit


class TestFrozenProblem:
    def test_candidates_and_roundtrip(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, NodeCountCost())
        assert problem.num_classes == circuit.egraph.num_classes
        assert problem.num_nodes <= circuit.egraph.num_nodes
        extraction = greedy_extract(circuit.egraph, NodeCountCost())
        choice = problem.choice_from_extraction(extraction)
        back = problem.extraction_from_choice(choice)
        assert back == {cid: extraction[cid] for cid in choice}

    def test_greedy_choice_matches_greedy_extract_cost(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.greedy_choice()
            frozen_cost = choice_cost(problem, choice)
            legacy = greedy_extract(circuit.egraph, cost)
            legacy_cost = extraction_cost(circuit.egraph, legacy, cost, circuit.output_classes)
            assert frozen_cost == pytest.approx(legacy_cost)

    def test_choice_cost_matches_extraction_cost(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.random_choice(random.Random(3), fallback=problem.greedy_choice())
            extraction = problem.extraction_from_choice(choice)
            assert choice_cost(problem, choice) == pytest.approx(
                extraction_cost(circuit.egraph, extraction, cost, circuit.output_classes)
            )

    def test_toposort_rejects_cycles(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        x = eg.add_term(AND, [a, b])
        y = eg.add_term(OR, [x, a])
        eg.union(x, y)
        eg.rebuild()
        problem = FrozenProblem.build(eg, [eg.find(x)], NodeCountCost())
        root = eg.find(x)
        # Choose the OR node, whose child is the class itself after the union.
        cyclic_idx = next(
            i for i, kids in enumerate(problem.children[root]) if root in kids
        )
        choice = problem.greedy_choice()
        choice[root] = cyclic_idx
        with pytest.raises(ValueError, match="cyclic"):
            problem.toposort(choice)

    def test_flip_candidates_are_order_respecting(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        choice = problem.greedy_choice()
        order = problem.toposort(choice)
        safe = problem.flip_candidates(order)
        for cid, indices in safe.items():
            assert choice[cid] in indices  # the current choice is always safe
            for i in indices:
                assert all(order[ch] < order[cid] for ch in problem.children[cid][i])


    def test_flip_candidates_for_reachable_classes_match_full(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        choice = problem.random_choice(random.Random(4), fallback=problem.greedy_choice())
        order = problem.toposort(choice)
        full = problem.flip_candidates(order)
        flippable, safe = engine_chains._flippable(problem, choice, order)
        reachable = problem.reachable(choice)
        assert set(safe) == reachable < set(full)
        assert all(safe[cid] == full[cid] for cid in reachable)
        assert flippable == [cid for cid in sorted(reachable) if len(full[cid]) > 1]

    def test_users_index_lists_every_distinct_child_once(self, saturated_circuit):
        _, circuit = saturated_circuit
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, DepthCost())
        expected = {}
        for cid in sorted(problem.nodes):
            for i, kids in enumerate(problem.children[cid]):
                for ch in sorted(set(kids)):
                    expected.setdefault(ch, set()).add((cid, i))
        assert {ch: set(entries) for ch, entries in problem.users.items()} == expected
        assert sum(map(len, problem.users.values())) == sum(map(len, expected.values()))


def _unrealizable_problem() -> FrozenProblem:
    """Hand-built classes, some only cyclically realizable: 9 and 33 need
    each other and 64 needs itself.  Ids are spread so set iteration order
    differs from id order."""
    children = {
        0: [()],
        1000: [(0,)],
        517: [(1000, 0), (33,)],
        9: [(33,)],
        33: [(9, 0)],
        64: [(64,), (64, 9)],
        8: [(517, 1000), (1000, 517), (0,)],
    }
    nodes = {
        cid: [ENode(AND if len(kids) > 1 else NOT, kids) for kids in per_class]
        for cid, per_class in children.items()
    }
    nodes[0] = [ENode(VAR, (), "x")]
    costs = {cid: [1.0] * len(per_class) for cid, per_class in children.items()}
    return FrozenProblem(nodes=nodes, children=children, node_costs=costs, roots=[8], mode="depth")


class TestWorklistStarts:
    """Worklist ``greedy_choice``/``random_choice`` against the sweep oracles:
    the same choice in the same dict order, and the same rng draws."""

    @settings(max_examples=20, deadline=None)
    @given(
        circuit_seed=st.integers(min_value=0, max_value=2**31 - 1),
        rng_seed=st.integers(min_value=0, max_value=2**31 - 1),
        iters=st.integers(min_value=1, max_value=2),
        cost_index=st.integers(min_value=0, max_value=2),
    )
    def test_fuzzed_parity_with_sweeps(self, circuit_seed, rng_seed, iters, cost_index):
        aig = control.random_control(num_inputs=8, num_outputs=4, terms_per_output=3, seed=circuit_seed)
        circuit = aig_to_egraph(aig)
        SaturationEngine(
            circuit.egraph,
            boolean_rules(),
            EngineLimits(max_iterations=iters, max_nodes=3_000, time_limit=30.0),
        ).run()
        cost = (
            DepthCost(),
            NodeCountCost(),
            OperatorCost(weights={AND: 0.7, OR: 1.3, NOT: 0.1}, mode="sum"),
        )[cost_index]
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        greedy = problem.greedy_choice()
        assert list(greedy.items()) == list(sweep_greedy_choice(problem).items())
        worklist_rng, sweep_rng = random.Random(rng_seed), random.Random(rng_seed)
        for _ in range(2):
            fast = problem.random_choice(worklist_rng, fallback=greedy)
            slow = sweep_random_choice(problem, sweep_rng, fallback=greedy)
            assert list(fast.items()) == list(slow.items())
            assert worklist_rng.getstate() == sweep_rng.getstate()

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_unrealizable_classes_fall_back_in_sweep_order(self, rng_seed):
        problem = _unrealizable_problem()
        greedy = problem.greedy_choice()
        assert list(greedy.items()) == list(sweep_greedy_choice(problem).items())
        assert set(greedy) == {0, 1000, 517, 8}
        fallback = {cid: 0 for cid in problem.nodes}
        worklist_rng, sweep_rng = random.Random(rng_seed), random.Random(rng_seed)
        fast = problem.random_choice(worklist_rng, fallback=fallback)
        slow = sweep_random_choice(problem, sweep_rng, fallback=fallback)
        assert list(fast.items()) == list(slow.items())
        assert set(list(fast)[-3:]) == {9, 33, 64}
        assert worklist_rng.getstate() == sweep_rng.getstate()


class TestDeltaFullParity:
    @pytest.mark.parametrize("cost_cls", [NodeCountCost, DepthCost])
    @pytest.mark.parametrize("circuit_seed", [1, 2, 3])
    def test_identical_trajectories_on_random_circuits(self, cost_cls, circuit_seed, monkeypatch):
        """The parity contract: a one-chain portfolio returns the identical
        cost, extraction and best-cost curve whether its flips are priced by
        the delta evaluator or by the full re-derivation oracle."""
        _, circuit = _random_saturated(circuit_seed)
        config = PortfolioConfig(chains=1, move_budget=96, migrate_every=24, seed=11)
        results = {}
        for name, evaluator in (("delta", DeltaCostEvaluator), ("full", FullCostEvaluator)):
            # Rounds run inline, so they see the patched module attribute.
            monkeypatch.setattr(engine_chains, "DeltaCostEvaluator", evaluator)
            results[name] = portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=cost_cls(),
                config=config,
                seed_solution=circuit.original_extraction(),
            )
        assert results["delta"].cost == results["full"].cost
        assert results["delta"].extraction == results["full"].extraction
        delta_curve = results["delta"].profile.chains[0].best_curve
        full_curve = results["full"].profile.chains[0].best_curve
        assert delta_curve == full_curve
        # The oracle really priced the second run: it pays every class per flip.
        full_chain = results["full"].profile.chains[0]
        assert full_chain.classes_touched == full_chain.evals * circuit.egraph.num_classes

    def test_flip_values_agree_move_by_move(self, saturated_circuit):
        _, circuit = saturated_circuit
        for cost in (NodeCountCost(), DepthCost()):
            problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
            choice = problem.greedy_choice()
            order = problem.toposort(choice)
            safe = problem.flip_candidates(order)
            flippable = [cid for cid in sorted(safe) if len(safe[cid]) > 1]
            delta = DeltaCostEvaluator(problem, choice, order=order)
            full = FullCostEvaluator(problem, choice)
            assert delta.cost == full.cost
            rng = random.Random(5)
            for _ in range(60):
                cid = flippable[rng.randrange(len(flippable))]
                pick = safe[cid][rng.randrange(len(safe[cid]))]
                assert delta.flip(cid, pick) == full.flip(cid, pick)

    def test_delta_is_cheaper_than_full(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=32, migrate_every=8),
        )
        # A delta move touches a cone, not the whole class set.
        assert 0 < result.profile.mean_cone() < circuit.egraph.num_classes / 4


class TestGreedyDepthFloor:
    @pytest.mark.parametrize("circuit_seed", [1, 2, 3])
    def test_search_cannot_beat_greedy_depth(self, circuit_seed):
        """Under ``cost=depth`` the greedy choice is the exact per-class
        minimum depth, so no chain — whatever its start or schedule — ends
        below it; search only adds equal-depth candidates."""
        _, circuit = _random_saturated(circuit_seed)
        cost = DepthCost()
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=cost,
            config=PortfolioConfig(chains=4, move_budget=192, migrate_every=16, seed=11),
            seed_solution=circuit.original_extraction(),
        )
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        greedy_cost = choice_cost(problem, problem.greedy_choice())
        assert result.cost == greedy_cost
        assert all(chain.best_cost >= greedy_cost for chain in result.profile.chains)


class TestPortfolio:
    def test_extraction_is_functionally_correct(self, saturated_circuit):
        aig, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=3, move_budget=48, migrate_every=8),
            seed_solution=circuit.original_extraction(),
        )
        back = extraction_to_aig(circuit, result.extraction)
        assert random_simulate(aig, 4, seed=7) == random_simulate(back, 4, seed=7)
        assert result.cost == pytest.approx(
            extraction_cost(circuit.egraph, result.extraction, DepthCost(), circuit.output_classes)
        )

    def test_never_worse_than_initial(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=2, move_budget=32, migrate_every=8),
        )
        assert result.cost <= result.profile.initial_cost + 1e-9

    def test_deterministic_per_seed(self, saturated_circuit):
        _, circuit = saturated_circuit
        runs = [
            portfolio_extract(
                circuit.egraph,
                circuit.output_classes,
                cost=NodeCountCost(),
                config=PortfolioConfig(chains=2, move_budget=24, migrate_every=8, seed=9),
            )
            for _ in range(2)
        ]
        assert runs[0].cost == runs[1].cost
        assert runs[0].extraction == runs[1].extraction

    def test_chain_seeds_are_distinct(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=3, move_budget=24, migrate_every=8, seed=5),
        )
        seeds = [chain.seed for chain in result.profile.chains]
        assert seeds == [chain_seed(5, i) for i in range(3)]
        assert len(set(seeds)) == 3

    def test_migration_events_recorded(self, saturated_circuit):
        _, circuit = saturated_circuit
        # A hot random-start chain next to a greedy-start chain: the laggard
        # adopts the leader's solution at a migration barrier.
        specs = (
            ChainSpec(kind="sa", initial="greedy", temperature=0.1, cooling=0.9),
            ChainSpec(kind="sa", initial="random", temperature=64.0, cooling=1.0),
        )
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(
                chains=2, move_budget=64, migrate_every=8, seed=3, chain_specs=specs
            ),
        )
        assert result.profile.migrations
        event = result.profile.migrations[0]
        assert event.target_chain != event.source_chain
        received = result.profile.chains[event.target_chain].migrations_received
        assert received >= 1

    def test_final_selector_rescored(self, saturated_circuit):
        _, circuit = saturated_circuit
        calls = []

        def selector(extraction):
            calls.append(1)
            return float(len(extraction))

        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=NodeCountCost(),
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8),
            final_selector=selector,
        )
        assert len(calls) == 2
        assert result.profile.selector == "external"
        assert result.chain_costs == sorted(result.chain_costs)

    def test_single_chain_runs_and_matches_manual_rounds(self, saturated_circuit):
        """chains=1 is exactly the single-chain engine: the portfolio adds
        nothing but the round structure."""
        _, circuit = saturated_circuit
        cost = DepthCost()
        config = PortfolioConfig(chains=1, move_budget=24, migrate_every=8, seed=21)
        result = portfolio_extract(circuit.egraph, circuit.output_classes, cost=cost, config=config)
        problem = FrozenProblem.build(circuit.egraph, circuit.output_classes, cost)
        state = init_chain(problem, config.spec_for(0), chain_seed(21, 0), greedy=problem.greedy_choice())
        for _ in range(3):
            run_round(problem, state, 8)
        assert state.best_cost == result.cost
        assert problem.extraction_from_choice(state.best_choice) == result.extraction


class TestParallelSASeeding:
    def test_chain_seed_derivation(self):
        assert chain_seed(7, 0) == 7
        assert chain_seed(7, 1) != chain_seed(7, 0)
        assert len({chain_seed(7, i) for i in range(16)}) == 16


class TestConfigValidation:
    def test_rejects_non_progressing_rounds(self):
        with pytest.raises(ValueError, match="migrate_every"):
            PortfolioConfig(migrate_every=0)
        with pytest.raises(ValueError, match="move_budget"):
            PortfolioConfig(move_budget=-1)
        with pytest.raises(ValueError, match="chain"):
            PortfolioConfig(chains=0)


class TestTelemetry:
    def test_profile_roundtrip_and_json(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=2, move_budget=16, migrate_every=8),
        )
        payload = result.profile.to_dict()
        text = json.dumps(payload)  # must be plain JSON
        back = ExtractionProfile.from_dict(json.loads(text))
        assert back.best_cost == result.profile.best_cost
        assert back.num_chains == result.profile.num_chains
        assert [c.to_dict() for c in back.chains] == [c.to_dict() for c in result.profile.chains]
        assert len(back.chains[0].accept_curve) == len(back.chains[0].reject_curve)

    def test_chain_curves_cover_rounds(self, saturated_circuit):
        _, circuit = saturated_circuit
        result = portfolio_extract(
            circuit.egraph,
            circuit.output_classes,
            cost=DepthCost(),
            config=PortfolioConfig(chains=1, move_budget=24, migrate_every=8),
        )
        chain = result.profile.chains[0]
        assert len(chain.best_curve) == 1 + 3  # initial + one entry per round
        assert chain.best_curve[-1] == chain.best_cost
        assert sum(chain.accept_curve) + sum(chain.reject_curve) == chain.moves
