"""Class-view invariants: the matcher's columns stay in lockstep with the e-graph.

:func:`repro.engine.batched.class_views` turns the object model into the
columns the trie walk reads — ``op -> class -> [child tuple, ...]`` plus the
VAR payloads of leaf classes — in one scan per search.  These tests drive
randomized add/union/rebuild sequences (and whole saturation runs) and assert,
via :func:`oracles.assert_views_match_object_model`, that the views agree node
for node with ``EClass.nodes`` canonicalized through ``find``, including
classes that repair never touched and that keep stale child ids.
"""

from __future__ import annotations

import random

import pytest

from repro.benchgen import epfl
from repro.conversion.dag2eg import aig_to_egraph
from repro.egraph.egraph import EGraph
from repro.egraph.language import AND, NOT, OR, VAR
from repro.egraph.rules import boolean_rules
from repro.engine import EngineLimits, SaturationEngine
from repro.engine.batched import class_views
from oracles import assert_views_match_object_model

_LIMITS = EngineLimits(max_iterations=2, max_nodes=6000, time_limit=10.0)


def _seeded_egraph():
    eg = EGraph()
    a, b, c = (eg.var(x) for x in "abc")
    ab = eg.add_term(AND, [a, b])
    eg.add_term(OR, [ab, c])
    eg.add_term(NOT, [ab])
    return eg


def _num_view_nodes(nodes):
    return sum(len(bucket) for per_class in nodes.values() for bucket in per_class.values())


class TestIncrementalMirror:
    def test_seeds_from_existing_egraph(self):
        eg = _seeded_egraph()
        assert_views_match_object_model(eg)
        nodes, _ = class_views(eg)
        assert _num_view_nodes(nodes) == eg.num_nodes

    def test_on_add_grows_columns(self):
        eg = EGraph()
        a = eg.var("a")
        b = eg.var("b")
        eg.add_term(AND, [a, b])
        assert_views_match_object_model(eg)
        nodes, _ = class_views(eg)
        assert _num_view_nodes(nodes) == 3

    def test_on_union_splices_spans(self):
        eg = _seeded_egraph()
        a = eg.var("a")
        b = eg.var("b")
        eg.union(a, b)
        eg.rebuild()
        assert_views_match_object_model(eg)
        root = eg.find(a)
        assert eg.find(b) == root
        # The merged class holds both VAR leaves.
        _, payloads = class_views(eg)
        assert payloads[root] == {"a", "b"}

    def test_repair_dedups_span_like_object_model(self):
        # Union two leaves so two previously distinct AND nodes become
        # congruent: the views drop the duplicate exactly as EClass.nodes does.
        eg = EGraph()
        a, b, c = (eg.var(x) for x in "abc")
        eg.add_term(AND, [a, c])
        eg.add_term(AND, [b, c])
        eg.union(a, b)
        eg.rebuild()
        assert_views_match_object_model(eg)
        nodes, _ = class_views(eg)
        assert [len(bucket) for bucket in nodes[AND].values()] == [1]


class TestReads:
    def test_class_view_buckets_by_op(self):
        eg = _seeded_egraph()
        a, b = eg.var("a"), eg.var("b")
        ab = eg.add_term(AND, [a, b])  # a hashcons hit: the seeded AND class
        nodes, payloads = class_views(eg)
        assert nodes[VAR][a] == [()]
        assert payloads[a] == {"a"}
        assert nodes[AND][ab] == [(a, b)]
        assert ab not in payloads

    def test_classes_with_op_sorted(self):
        eg = _seeded_egraph()
        nodes, _ = class_views(eg)
        cids = list(nodes[AND])
        assert cids == sorted(cids)
        assert cids  # the seeded graph has an AND node

    def test_classes_with_unknown_op_empty(self):
        eg = _seeded_egraph()
        nodes, _ = class_views(eg)
        assert "no-such-op-ever" not in nodes

    def test_canonical_class_ids_match_object_model(self):
        eg = _seeded_egraph()
        eg.union(eg.var("a"), eg.var("b"))
        eg.rebuild()
        nodes, _ = class_views(eg)
        view_ids = sorted({cid for per_class in nodes.values() for cid in per_class})
        assert view_ids == sorted(eg.canonical_classes())


class TestRandomizedLockstep:
    """Seeded mutation storms with view checks after every step."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 40, 42])
    def test_random_add_union_rebuild(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        classes = [eg.var(f"v{i}") for i in range(4)]
        for step in range(120):
            action = rng.random()
            if action < 0.55:
                op = rng.choice([AND, OR, NOT])
                arity = 1 if op == NOT else 2
                children = [rng.choice(classes) for _ in range(arity)]
                classes.append(eg.add_term(op, children))
            elif action < 0.8:
                eg.union(rng.choice(classes), rng.choice(classes))
            else:
                eg.rebuild()
            # The views are a pure function of the current object model, so
            # they agree with it between rebuilds too.
            assert_views_match_object_model(eg)
        eg.rebuild()
        eg.check_invariants()
        assert_views_match_object_model(eg)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_lockstep_through_saturation(self, seed):
        rng = random.Random(seed)
        eg = EGraph()
        classes = [eg.var(f"v{i}") for i in range(3)]
        for _ in range(40):
            op = rng.choice([AND, OR, NOT])
            arity = 1 if op == NOT else 2
            classes.append(eg.add_term(op, [rng.choice(classes) for _ in range(arity)]))
        engine = SaturationEngine(
            eg,
            boolean_rules(),
            limits=EngineLimits(max_iterations=3, max_nodes=4000, time_limit=10.0),
        )
        engine.run()
        assert_views_match_object_model(eg)

    def test_lockstep_on_real_circuit(self):
        eg = aig_to_egraph(epfl.build("adder", preset="test")).egraph
        assert_views_match_object_model(eg)
        SaturationEngine(eg, boolean_rules(), limits=_LIMITS).run()
        assert_views_match_object_model(eg)

    def test_batched_engine_leaves_lockstep_columns(self):
        # Between iterations the engine rebuilds, so every class is
        # canonical and the views hold exactly the live e-nodes.
        eg = aig_to_egraph(epfl.build("adder", preset="test")).egraph
        SaturationEngine(eg, boolean_rules(), limits=_LIMITS).run()
        nodes, _ = class_views(eg)
        assert _num_view_nodes(nodes) == eg.num_nodes
        assert_views_match_object_model(eg)
