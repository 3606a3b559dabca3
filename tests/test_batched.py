"""Batched e-matching parity and wiring tests.

The invariant: the shared-prefix trie over per-search class views
(:mod:`repro.engine.batched`, the only production e-matcher) produces exactly
the per-pattern reference's matches — same counts, same substitutions, same
order, same ``limit`` truncation prefix — so a saturation run lands on the
e-graph of the per-pattern oracle loop (``tests/oracles.py``) under every
scheduler/dedup combination.  Parity is fuzzed on random e-graphs whose
``EClass.nodes`` hold stale child ids.  Plus the retired matcher knobs: the
DSL rejects them and old stored payloads that carry them still load.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR
from repro.egraph.pattern import parse_pattern
from repro.egraph.rewrite import Rewrite
from repro.egraph.rules import boolean_rules
from repro.egraph.serialize import egraph_digest
from repro.engine import (
    BackoffScheduler,
    BatchedMatcher,
    EngineLimits,
    SaturationEngine,
    SaturationProfile,
    compile_pattern,
    priorities_from_attribution,
)
from repro.extraction.engine import ExtractionProfile
from repro.flows.emorphic import RETIRED_FIELDS, EmorphicConfig
from repro.pipeline import Pipeline, PipelineError
from oracles import PerPatternEngine, search

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def _test_egraph(name="adder"):
    return aig_to_egraph(epfl.build(name, preset="test")).egraph


def _limits(iters=2, nodes=6000):
    return EngineLimits(max_iterations=iters, max_nodes=nodes, time_limit=30.0)


def _zeroed_profile(profile):
    """Profile JSON with timings and trie visits zeroed (the oracle loop does
    not walk a trie) — everything else must be identical."""

    def zero(obj):
        if isinstance(obj, dict):
            return {
                k: 0.0 if isinstance(v, float) else 0 if k == "trie_visits" else zero(v)
                for k, v in obj.items()
            }
        if isinstance(obj, list):
            return [zero(v) for v in obj]
        return obj

    return zero(profile.to_dict())


def _reference(eg, rules, limit=None, caps=None):
    """Per-rule oracle matches, each rule truncated at ``min(limit, cap)``."""
    out = {}
    for i, rule in enumerate(rules):
        cap = (caps or {}).get(i)
        bound = cap if limit is None else limit if cap is None else min(cap, limit)
        out[i] = search(eg, rule.lhs, limit=bound)
    return out


class TestCompilePattern:
    def test_slot_normalization_is_alpha_invariant(self):
        a = compile_pattern(parse_pattern(f"({AND} ?a ?b)"))
        b = compile_pattern(parse_pattern(f"({AND} ?x ?y)"))
        assert a[:2] == b[:2]
        assert a[2] == ("a", "b") and b[2] == ("x", "y")

    def test_repeated_variable_shares_slot(self):
        root_op, keys, names = compile_pattern(parse_pattern(f"({AND} ?a ?a)"))
        assert root_op == AND
        assert keys == (("var", 0), ("var", 0))
        assert names == ("a",)

    def test_nested_pattern_preorder_slots(self):
        root_op, keys, names = compile_pattern(
            parse_pattern(f"({OR} ({AND} ?a ?b) ?a)")
        )
        assert root_op == OR
        assert keys == (("op", AND, (("var", 0), ("var", 1))), ("var", 0))
        assert names == ("a", "b")

    def test_non_operator_root_falls_back(self):
        root_op, keys, names = compile_pattern(parse_pattern("?x"))
        assert root_op is None


class TestTrieSharing:
    def test_prefix_sharing_shrinks_trie(self):
        matcher = BatchedMatcher(boolean_rules())
        stats = matcher.trie_stats()
        assert stats["rules"] == len(boolean_rules())
        # Shared prefixes: strictly fewer roots than rules, and fewer edges
        # than the sum of standalone pattern sizes would need.
        assert stats["roots"] < stats["rules"]
        assert stats["nodes"] == stats["edges"] + stats["roots"]

    def test_priority_ordering_reorders_not_changes(self):
        rules = boolean_rules()
        eg = _test_egraph()
        active = list(range(len(rules)))
        plain = BatchedMatcher(rules).search(eg, active)
        prioritized = BatchedMatcher(
            rules, rule_priorities={rules[0].name: 100.0, rules[-1].name: 50.0}
        ).search(eg, active)
        assert plain == prioritized


#: Rules with symbol leaves, so fuzzing also covers the ``s`` dispatch form.
_SYMBOL_RULES = [
    Rewrite.from_strings("sym-and", f"({AND} v0 ?x)", f"({AND} ?x v0)"),
    Rewrite.from_strings("sym-nested", f"({OR} ({NOT} v1) ?y)", f"({OR} ?y ({NOT} v1))"),
]


def _random_egraph(seed: int) -> EGraph:
    """Random adds and unions, then ``rebuild``: classes that repair never
    touched keep stale child ids in ``EClass.nodes``."""
    rng = random.Random(seed)
    eg = EGraph()
    classes = [eg.var(f"v{i}") for i in range(4)]
    for _ in range(rng.randint(10, 80)):
        action = rng.random()
        if action < 0.7:
            op = rng.choice([AND, OR, NOT])
            arity = 1 if op == NOT else 2
            classes.append(eg.add_term(op, [rng.choice(classes) for _ in range(arity)]))
        else:
            eg.union(rng.choice(classes), rng.choice(classes))
    eg.rebuild()
    return eg


class TestMatchParity:
    """Per-rule match lists identical to the per-pattern reference."""

    @pytest.mark.parametrize("circuit", ["adder", "mem_ctrl"])
    def test_exact_match_lists(self, circuit):
        eg = _test_egraph(circuit)
        rules = boolean_rules()
        batched = BatchedMatcher(rules).search(eg, range(len(rules)))
        assert batched == _reference(eg, rules)

    def test_parity_survives_apply_rebuild_cycles(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        engine = SaturationEngine(eg, rules, limits=_limits(iters=1))
        for _ in range(2):
            assert matcher.search(eg, range(len(rules))) == _reference(eg, rules)
            engine.run()  # one apply+rebuild round between parity checks
        assert matcher.search(eg, range(len(rules))) == _reference(eg, rules)

    def test_limit_truncation_same_prefix(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        batched = BatchedMatcher(rules).search(eg, range(len(rules)), limit=7)
        assert batched == _reference(eg, rules, limit=7)

    def test_ban_pruning_skips_inactive_rules(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        active = [0, 3, 5]
        out = matcher.search(eg, active)
        assert set(out) == set(active)
        full = matcher.search(eg, range(len(rules)))
        for index in active:
            assert out[index] == full[index]

    def test_non_operator_root_rejected(self):
        rule = Rewrite("odd-root", parse_pattern("?x"), parse_pattern("?x"))
        with pytest.raises(ValueError, match="non-operator LHS root"):
            BatchedMatcher([rule])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cap_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_fuzzed_parity_with_oracle(self, seed, cap_seed):
        eg = _random_egraph(seed)
        rules = boolean_rules() + _SYMBOL_RULES
        matcher = BatchedMatcher(rules)
        active = range(len(rules))
        assert matcher.search(eg, active) == _reference(eg, rules)
        rng = random.Random(cap_seed)
        caps = {i: rng.randint(1, 12) for i in active if rng.random() < 0.7}
        limit = rng.choice([None, 5, 40])
        assert matcher.search(eg, active, limit=limit, caps=caps) == _reference(
            eg, rules, limit=limit, caps=caps
        )

    def test_matcher_holds_no_views_after_search(self):
        eg = _test_egraph("adder")
        rules = boolean_rules()
        matcher = BatchedMatcher(rules)
        tracemalloc.start()
        try:
            matcher.search(eg, range(len(rules)))  # allocate the trie's per-search sets
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = matcher.search(eg, range(len(rules)))
            del out
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The search builds views of every class (a large peak); once it has
        # returned, nothing it built is still alive.
        assert peak - before > 100_000
        assert after - before < 10_000


class TestSchedulerCaps:
    """``search_cap`` truncation is exact under the backoff scheduler."""

    def test_backoff_caps_are_exact(self):
        rules = boolean_rules()
        eg = _test_egraph("adder")
        matcher = BatchedMatcher(rules)
        active = list(range(len(rules)))
        capped_sched, uncapped_sched = BackoffScheduler(match_limit=4), BackoffScheduler(match_limit=4)
        for iteration in range(3):
            caps = {i: capped_sched.search_cap(rules[i].name) for i in active}
            capped = matcher.search(eg, active, caps=caps)
            uncapped = matcher.search(eg, active)
            for i in active:
                name = rules[i].name
                kept_capped = capped[i][: capped_sched.allowed_matches(iteration, name, len(capped[i]))]
                kept_uncapped = uncapped[i][
                    : uncapped_sched.allowed_matches(iteration, name, len(uncapped[i]))
                ]
                assert kept_capped == kept_uncapped
        assert capped_sched.stats == uncapped_sched.stats
        assert any(state.times_banned for state in capped_sched.stats.values())

    def test_engine_caps_match_uncapped_oracle_loop(self):
        def run(cls):
            eg = _test_egraph("adder")
            scheduler = BackoffScheduler(match_limit=30, ban_length=1)
            profile = cls(eg, boolean_rules(), limits=_limits(iters=4), scheduler=scheduler).run()
            bans = {
                name: (state.times_banned, state.banned_until)
                for name, state in scheduler.stats.items()
            }
            return egraph_digest(eg), _zeroed_profile(profile), bans

        capped = run(SaturationEngine)
        assert capped == run(PerPatternEngine)
        assert any(times for times, _ in capped[2].values())

    def test_simple_scheduler_has_no_cap(self):
        from repro.engine import SimpleScheduler

        assert SimpleScheduler().search_cap("and-comm") is None
        backoff = BackoffScheduler(match_limit=10)
        assert backoff.search_cap("and-comm") == 11
        backoff.allowed_matches(0, "and-comm", 11)  # overflow: banned once
        assert backoff.search_cap("and-comm") == 21


class TestEngineParity:
    """Whole saturation runs against the per-pattern oracle loop."""

    @pytest.mark.parametrize("scheduler", ["simple", "backoff"])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_identical_final_egraph(self, scheduler, dedup):
        def run(cls):
            eg = _test_egraph("adder")
            profile = cls(
                eg, boolean_rules(), limits=_limits(), scheduler=scheduler, dedup_matches=dedup
            ).run()
            return egraph_digest(eg), _zeroed_profile(profile)

        assert run(SaturationEngine) == run(PerPatternEngine)

    def test_batched_run_is_deterministic(self):
        def run():
            eg = _test_egraph("adder")
            SaturationEngine(eg, boolean_rules(), limits=_limits()).run()
            return egraph_digest(eg)

        assert run() == run()

    def test_profile_records_trie_visits(self):
        eg = _test_egraph("adder")
        profile = SaturationEngine(eg, boolean_rules(), limits=_limits(iters=1)).run()
        visits = {name: rule.trie_visits for name, rule in profile.rules.items()}
        assert visits["and-comm"] > 0
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["trie_visits"] == sum(visits.values())
        assert payload["rules"]["and-comm"]["trie_visits"] == visits["and-comm"]
        assert "matcher" not in payload and "indexed" not in payload

    def test_trie_visits_identical_across_processes(self):
        script = (
            "import json\n"
            "from repro.benchgen import epfl\n"
            "from repro.conversion.dag2eg import aig_to_egraph\n"
            "from repro.egraph.rules import boolean_rules\n"
            "from repro.engine import EngineLimits, SaturationEngine\n"
            "eg = aig_to_egraph(epfl.build('adder', preset='test')).egraph\n"
            "limits = EngineLimits(max_iterations=2, max_nodes=6000, time_limit=30.0)\n"
            "profile = SaturationEngine(eg, boolean_rules(), limits=limits).run()\n"
            "print(json.dumps({n: r.trie_visits for n, r in profile.rules.items()}))\n"
        )
        results = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            results.append(json.loads(proc.stdout))
        eg = _test_egraph("adder")
        profile = SaturationEngine(eg, boolean_rules(), limits=_limits()).run()
        here = {name: rule.trie_visits for name, rule in profile.rules.items()}
        assert results[0] == results[1] == here

    def test_match_limit_truncation_parity(self):
        def run(cls):
            eg = _test_egraph("adder")
            limits = EngineLimits(
                max_iterations=2,
                max_nodes=6000,
                time_limit=30.0,
                match_limit_per_rule=37,
            )
            profile = cls(eg, boolean_rules(), limits=limits).run()
            return egraph_digest(eg), _zeroed_profile(profile)

        assert run(SaturationEngine) == run(PerPatternEngine)


class TestPriorities:
    def test_from_attribution_dict(self):
        payload = {
            "rules": {
                "and-comm": {"surviving_ands": 12},
                "or-comm": {"surviving_ands": 0},
                "original": {"surviving_ands": 99},
            }
        }
        priorities = priorities_from_attribution(payload)
        assert priorities == {"and-comm": 12.0, "or-comm": 0.0}

    def test_from_attribution_object(self):
        class Fake:
            def to_dict(self):
                return {"rules": {"not-not": {"surviving_ands": 3}}}

        assert priorities_from_attribution(Fake()) == {"not-not": 3.0}


class TestWiring:
    def test_pipeline_saturate_matcher_param(self):
        # The matcher knob is retired: the DSL rejects it, naming what the
        # saturate pass does accept.
        with pytest.raises(PipelineError, match="accepted: dedup, iters, max_nodes"):
            Pipeline.from_script("strash; dag2eg; saturate(iters=1, matcher=batched)")

    def test_pipeline_rejects_unknown_matcher(self):
        with pytest.raises(PipelineError, match="matcher"):
            Pipeline.from_script("strash; dag2eg; saturate(iters=1, matcher=nope)")

    def test_pipeline_rejects_retired_index_param(self):
        with pytest.raises(PipelineError, match="accepted: dedup, iters, max_nodes"):
            Pipeline.from_script("strash; dag2eg; saturate(iters=1, index=false)")

    def test_emorphic_config_round_trip(self):
        config = EmorphicConfig(scheduler="simple")
        payload = config.to_dict()
        assert "matcher" not in payload and "use_op_index" not in payload
        assert EmorphicConfig.from_dict(payload) == config
        # Retired knobs in an old payload are dropped, not rejected.
        legacy = dict(payload, matcher="batched", use_op_index=False)
        assert EmorphicConfig.from_dict(legacy) == config
        with pytest.raises(ValueError, match="unknown EmorphicConfig fields"):
            EmorphicConfig.from_dict(dict(payload, bogus=1))

    def test_schema8_store_record_still_loads(self):
        record = json.loads((FIXTURES / "store_record_v8.json").read_text())
        assert record["schema"] == 8
        stored_config = record["job"]["config"]
        # The fixture carries every retired field: the matcher knobs and the
        # extraction-engine choice with the full-sweep SA loop's knobs.
        assert set(RETIRED_FIELDS) <= set(stored_config)
        config = EmorphicConfig.from_dict(stored_config)
        assert config.rewrite_iterations == stored_config["rewrite_iterations"]
        assert not set(RETIRED_FIELDS) & set(config.to_dict())
        extraction = record["result"]["extraction"]
        assert extraction["engine"] == "portfolio" and extraction["evaluator"] == "delta"
        extraction_profile = ExtractionProfile.from_dict(extraction)
        assert extraction_profile.best_cost == extraction["best_cost"]
        assert extraction_profile.total_moves == extraction["total_moves"]
        assert [chain.seed for chain in extraction_profile.chains] == [
            chain["seed"] for chain in extraction["chains"]
        ]
        assert "engine" not in extraction_profile.to_dict()
        assert all("evaluator" not in chain.to_dict() for chain in extraction_profile.chains)
        saturation = record["result"]["saturation"]
        assert saturation["matcher"] == "indexed"
        profile = SaturationProfile.from_dict(saturation)
        assert profile.total_matches == saturation["total_matches"]
        assert profile.final_nodes == saturation["final_nodes"]
        assert all(rule.trie_visits == 0 for rule in profile.rules.values())
        assert "matcher" not in profile.to_dict()
