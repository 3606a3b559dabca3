"""Slow reference implementations kept only as differential test oracles.

* :func:`search` is per-pattern e-matching: one pattern at a time over every
  canonical class, children canonicalized through ``find`` on every visit.
  :class:`PerPatternEngine` is the saturation loop searching each rule that
  way, uncapped.  Together they pin the batched trie matcher
  (``repro.engine.batched``), which production uses for every search.
* :func:`assert_views_match_object_model` recomputes the matcher's per-search
  class views (``repro.engine.batched.class_views``) node by node from the
  object model.
* :func:`per_output_check_equivalence` is the CEC that production sweeping
  replaced: random simulation, then one fresh solver per output on a copy of
  the whole two-circuit CNF.
* :func:`per_pair_choice_classes` is the choice-class policy of ``dch`` with
  the per-pair prover it replaced: a fresh cone CNF and solver per pair.
* :class:`LinearScanSolver` is the CDCL solver with the linear-scan decision
  rule that the VSIDS heap replaced.
* :func:`leaf_truth`, :func:`expand_truth`, :func:`cofactors`,
  :func:`var_halves`, :func:`negate_input`, :func:`permute_inputs`,
  :func:`remap_cut` and :class:`MintermLibrary` are the per-minterm
  truth-table loops that the bit-parallel kernel (``repro.opt.truth``)
  replaced in the cut layer, the mapper and the cell library.
* :class:`FullCostEvaluator` prices every extraction flip by re-deriving the
  whole cost from scratch (``choice_cost``); it pins the delta-cost
  evaluator (``repro.extraction.engine.delta``) move by move.
* :func:`sweep_greedy_choice` and :func:`sweep_random_choice` build the
  extraction starts by whole sweeps over every class until nothing changes;
  they pin the worklist ``FrozenProblem.greedy_choice`` and
  ``FrozenProblem.random_choice``.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.aig.simulate import random_simulate, simulation_signatures
from repro.egraph.egraph import EGraph
from repro.egraph.language import VAR
from repro.egraph.pattern import MAX_SUBSTITUTIONS_PER_NODE, Match, Pattern, PatternNode, Substitution
from repro.engine.batched import class_views
from repro.engine.engine import SaturationEngine
from repro.extraction.engine.delta import choice_cost
from repro.extraction.engine.problem import Choice, FrozenProblem
from repro.mapping.choices import ChoiceClasses
from repro.mapping.library import Gate, GateMatch, Library
from repro.opt.cuts import Cut
from repro.verify.cec import CecResult
from repro.verify.cnf import Cnf, encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver


def _match_node(egraph: EGraph, pattern: PatternNode, class_id: int, subst: Substitution) -> Iterator[Substitution]:
    """Yield all substitutions matching ``pattern`` against e-class ``class_id``."""
    class_id = egraph.find(class_id)
    if pattern.kind == "pattern_var":
        bound = subst.get(pattern.name)
        if bound is not None:
            if egraph.find(bound) == class_id:
                yield subst
            return
        new = dict(subst)
        new[pattern.name] = class_id
        yield new
        return
    if pattern.kind == "symbol":
        for enode in egraph.nodes_of(class_id):
            if enode.op == VAR and enode.payload == pattern.name:
                yield subst
                return
        return
    # Operator node: try every e-node of the class with the same operator,
    # capping the cross-product of child substitutions per e-node.
    for enode in egraph.nodes_of(class_id):
        if enode.op != pattern.op or len(enode.children) != len(pattern.children):
            continue
        stack = [subst]
        for child_pat, child_class in zip(pattern.children, enode.children):
            next_stack = []
            for s in stack:
                for candidate in _match_node(egraph, child_pat, child_class, s):
                    next_stack.append(candidate)
                    if len(next_stack) >= MAX_SUBSTITUTIONS_PER_NODE:
                        break
                if len(next_stack) >= MAX_SUBSTITUTIONS_PER_NODE:
                    break
            stack = next_stack
            if not stack:
                break
        for s in stack:
            yield s


def search(egraph: EGraph, pattern: Pattern, limit: Optional[int] = None) -> List[Match]:
    """Matches of one pattern, classes in sorted order, first ``limit`` kept."""
    matches: List[Match] = []
    for class_id in sorted(egraph.canonical_classes()):
        for subst in _match_node(egraph, pattern.root, class_id, {}):
            matches.append(Match(class_id=class_id, substitution=subst))
            if limit is not None and len(matches) >= limit:
                return matches
    return matches


class PerPatternEngine(SaturationEngine):
    """The saturation loop with every rule searched on its own, uncapped by
    the scheduler (only ``match_limit_per_rule`` truncates)."""

    def _search(self, matcher, active, caps):
        limit = self.limits.match_limit_per_rule
        return {i: search(self.egraph, self.rules[i].lhs, limit=limit) for i in active}


def assert_views_match_object_model(egraph: EGraph) -> None:
    """The matcher's class views equal a scan of canonicalized nodes."""
    expected_nodes: Dict[str, Dict[int, List[Tuple[int, ...]]]] = {}
    expected_payloads: Dict[int, set] = {}
    for cid in sorted(egraph.canonical_classes()):
        for node in egraph.nodes_of(cid):
            node = node.canonicalize(egraph.union_find)
            expected_nodes.setdefault(node.op, {}).setdefault(cid, []).append(node.children)
            if node.op == VAR:
                expected_payloads.setdefault(cid, set()).add(node.payload)
    nodes, payloads = class_views(egraph)
    assert nodes == expected_nodes
    assert payloads == expected_payloads
    for per_class in nodes.values():
        assert list(per_class) == sorted(per_class)  # candidate order


class LinearScanSolver(SatSolver):
    """``SatSolver`` deciding by a linear scan over all variables."""

    def _decide(self) -> Optional[int]:
        best_var = None
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0 and self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        return best_var


def per_output_check_equivalence(
    aig_a: Aig, aig_b: Aig, sim_words: int = 8, conflict_budget: Optional[int] = None
) -> CecResult:
    """CEC with one fresh solver per output over a copied two-circuit CNF."""
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        return CecResult(equivalent=False, status="counterexample")
    sims_a = random_simulate(aig_a, num_words=sim_words, seed=99)
    sims_b = random_simulate(aig_b, num_words=sim_words, seed=99)
    for words_a, words_b in zip(sims_a, sims_b):
        for out_idx, (wa, wb) in enumerate(zip(words_a, words_b)):
            if wa != wb:
                return CecResult(equivalent=False, status="counterexample", failing_output=out_idx)

    cnf, map_a, outs_a = tseitin_encode(aig_a)
    shared = {vb: map_a[va] for va, vb in zip(aig_a.pis, aig_b.pis)}
    _, _, outs_b = tseitin_encode(aig_b, cnf, input_map=shared)
    total_conflicts = 0
    for out_idx, (la, lb) in enumerate(zip(outs_a, outs_b)):
        local = Cnf(num_vars=cnf.num_vars, clauses=[list(c) for c in cnf.clauses])
        local.add_clause([encode_miter_output(local, la, lb)])
        result = SatSolver(local).solve(conflict_budget=conflict_budget)
        total_conflicts += result.conflicts
        if result.status == "sat":
            cex = {
                aig_a.node(var).name or f"pi{i}": result.model.get(map_a[var], False)
                for i, var in enumerate(aig_a.pis)
            }
            return CecResult(
                equivalent=False,
                status="counterexample",
                counterexample=cex,
                failing_output=out_idx,
                conflicts=total_conflicts,
            )
        if result.status == "unknown":
            return CecResult(equivalent=False, status="unknown", conflicts=total_conflicts)
    return CecResult(equivalent=True, status="equivalent", conflicts=total_conflicts)


def _cone_subaig(aig: Aig, roots: Sequence[int], max_nodes: int) -> Optional[Tuple[Aig, Dict[int, int]]]:
    """The cone of ``roots`` as a standalone AIG (its PIs become new PIs)."""
    needed: List[int] = []
    seen = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        node = aig.node(var)
        if node.is_and:
            needed.append(var)
            stack.append(lit_var(node.fanin0))
            stack.append(lit_var(node.fanin1))
        if len(needed) > max_nodes:
            return None
    sub = Aig(name="cone")
    old2new: Dict[int, int] = {0: 0}
    for var in sorted(seen):
        node = aig.node(var)
        if node.is_pi:
            old2new[var] = sub.add_pi(node.name)
    for var in sorted(needed):
        node = aig.node(var)
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[var] = sub.add_and(f0, f1)
    return sub, old2new


def cone_sat_equivalent(aig: Aig, var_a: int, var_b: int, max_cone: int, conflict_budget: int) -> str:
    """Budgeted proof that two same-polarity variables are equal, on their cone alone."""
    cone = _cone_subaig(aig, [var_a, var_b], max_cone)
    if cone is None:
        return "unknown"
    sub, old2new = cone
    cnf, var_map, _ = tseitin_encode(sub)

    def cnf_lit(old_var: int) -> int:
        lit = old2new[old_var]
        v = var_map[lit_var(lit)]
        return -v if lit_is_compl(lit) else v

    cnf.add_clause([encode_miter_output(cnf, cnf_lit(var_a), cnf_lit(var_b))])
    result = SatSolver(cnf).solve(conflict_budget=conflict_budget)
    if result.status == "unsat":
        return "equivalent"
    if result.status == "sat":
        return "different"
    return "unknown"


def per_pair_choice_classes(
    union: Aig,
    sim_words: int = 8,
    max_pairs: int = 2000,
    max_cone: int = 300,
    conflict_budget: int = 500,
    seed: int = 2024,
) -> ChoiceClasses:
    """The ``dch`` choice classes of a union AIG, each pair proven on its own cone."""
    sigs = simulation_signatures(union, num_words=sim_words, seed=seed)
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)
    classes = ChoiceClasses()
    pairs_checked = 0
    for members in buckets.values():
        if len(members) < 2:
            continue
        rep = min(members)
        confirmed = [rep]
        for var in members:
            if var == rep:
                continue
            if pairs_checked >= max_pairs:
                break
            pairs_checked += 1
            if cone_sat_equivalent(union, rep, var, max_cone, conflict_budget) == "equivalent":
                confirmed.append(var)
        if len(confirmed) > 1:
            classes.members[rep] = confirmed
            for var in confirmed:
                classes.repr_of[var] = rep
    return classes


def leaf_truth(index: int, num_leaves: int) -> int:
    """Truth table of input variable ``index`` over ``num_leaves`` variables."""
    width = 1 << num_leaves
    word = 0
    for minterm in range(width):
        if (minterm >> index) & 1:
            word |= 1 << minterm
    return word


def expand_truth(truth: int, old_leaves: Sequence[int], new_leaves: Sequence[int]) -> int:
    """Re-express ``truth`` (over ``old_leaves``) over the superset ``new_leaves``."""
    pos = {leaf: i for i, leaf in enumerate(new_leaves)}
    n_new = len(new_leaves)
    width = 1 << n_new
    out = 0
    for minterm in range(width):
        old_minterm = 0
        for i, leaf in enumerate(old_leaves):
            if (minterm >> pos[leaf]) & 1:
                old_minterm |= 1 << i
        if (truth >> old_minterm) & 1:
            out |= 1 << minterm
    return out


def cofactors(truth: int, var: int, num_vars: int) -> Tuple[int, int]:
    """Return (negative cofactor, positive cofactor) as functions of all vars."""
    width = 1 << num_vars
    neg = pos = 0
    for minterm in range(width):
        bit = (truth >> minterm) & 1
        if not bit:
            continue
        if (minterm >> var) & 1:
            pos |= 1 << minterm
            pos |= 1 << (minterm ^ (1 << var))
        else:
            neg |= 1 << minterm
            neg |= 1 << (minterm ^ (1 << var))
    return neg, pos


def var_halves(var: int, num_vars: int) -> Tuple[int, int]:
    """Minterm masks for var=0 and var=1 halves of the truth table."""
    width = 1 << num_vars
    mask = (1 << width) - 1
    pos_mask = 0
    for minterm in range(width):
        if (minterm >> var) & 1:
            pos_mask |= 1 << minterm
    return mask ^ pos_mask, pos_mask


def negate_input(truth: int, var: int, num_vars: int) -> int:
    """Swap the cofactors of ``var``."""
    width = 1 << num_vars
    out = 0
    for minterm in range(width):
        src = minterm ^ (1 << var)
        if (truth >> src) & 1:
            out |= 1 << minterm
    return out


def permute_inputs(truth: int, perm: Tuple[int, ...], num_vars: int) -> int:
    """Apply an input permutation: new variable i reads old variable perm[i]."""
    width = 1 << num_vars
    out = 0
    for minterm in range(width):
        src = 0
        for new_idx, old_idx in enumerate(perm):
            if (minterm >> new_idx) & 1:
                src |= 1 << old_idx
        if (truth >> src) & 1:
            out |= 1 << minterm
    return out


def remap_cut(cut: Cut, mapping: Dict[int, int]) -> Optional[Cut]:
    """Rename cut leaves according to ``mapping``, permuting the truth table."""
    new_leaves_unsorted = [mapping[leaf] for leaf in cut.leaves]
    if len(set(new_leaves_unsorted)) != len(new_leaves_unsorted):
        return None
    order = sorted(range(len(new_leaves_unsorted)), key=lambda i: new_leaves_unsorted[i])
    new_leaves = tuple(new_leaves_unsorted[i] for i in order)
    # Permute the truth table so that input position j reads the old input order[j].
    n = len(new_leaves)
    width = 1 << n
    new_truth = 0
    for minterm in range(width):
        src = 0
        for new_pos, old_pos in enumerate(order):
            if (minterm >> new_pos) & 1:
                src |= 1 << old_pos
        if (cut.truth >> src) & 1:
            new_truth |= 1 << minterm
    return Cut(leaves=new_leaves, truth=new_truth)


class MintermLibrary(Library):
    """``Library`` building its match table one minterm at a time."""

    def _index_gate(self, gate: Gate) -> None:
        n = gate.num_inputs
        width = 1 << n
        for perm in permutations(range(n)):
            for neg_mask in range(1 << n):
                for out_neg in (False, True):
                    truth = 0
                    for minterm in range(width):
                        gate_minterm = 0
                        for pin in range(n):
                            bit = (minterm >> perm[pin]) & 1
                            if (neg_mask >> pin) & 1:
                                bit ^= 1
                            gate_minterm |= bit << pin
                        value = (gate.truth >> gate_minterm) & 1
                        if out_neg:
                            value ^= 1
                        truth |= value << minterm
                    match = GateMatch(
                        gate=gate,
                        leaf_of_pin=perm,
                        pin_negated=tuple(bool((neg_mask >> pin) & 1) for pin in range(n)),
                        output_negated=out_neg,
                    )
                    key = (n, truth)
                    existing = self._match_table.get(key)
                    if existing is None or self._match_rank(match) < self._match_rank(existing):
                        self._match_table[key] = match


class FullCostEvaluator:
    """The full-sweep extraction evaluator: every flip re-derives the cost.

    Same surface as ``DeltaCostEvaluator`` (``choice``, ``cost``, ``evals``,
    ``touched``, ``flip``); ``order`` is accepted and ignored, so the class
    can stand in for the delta evaluator inside ``run_round``.
    """

    def __init__(self, problem: FrozenProblem, choice: Choice, order: Optional[Dict[int, int]] = None):
        self.problem = problem
        self.choice: Choice = dict(choice)
        self.cost = choice_cost(problem, self.choice)
        self.evals = 0
        self.touched = 0

    def flip(self, cid: int, node_idx: int) -> float:
        self.choice[cid] = node_idx
        self.cost = choice_cost(self.problem, self.choice)
        self.evals += 1
        self.touched += self.problem.num_classes
        return self.cost


def sweep_greedy_choice(problem: FrozenProblem) -> Choice:
    """Bottom-up greedy fixpoint by whole sweeps: every class, in id order,
    until one sweep changes nothing.  Pins the worklist
    ``FrozenProblem.greedy_choice``."""
    best_cost: Dict[int, float] = {}
    choice: Choice = {}
    ordered = sorted(problem.nodes)
    changed = True
    while changed:
        changed = False
        for cid in ordered:
            costs = problem.node_costs[cid]
            kids = problem.children[cid]
            for i in range(len(costs)):
                child_costs = []
                ok = True
                for ch in kids[i]:
                    if ch not in best_cost:
                        ok = False
                        break
                    child_costs.append(best_cost[ch])
                if not ok:
                    continue
                if problem.mode == "sum":
                    total = costs[i] + sum(child_costs)
                else:
                    total = costs[i] + (max(child_costs) if child_costs else 0.0)
                if total < best_cost.get(cid, float("inf")) - 1e-12:
                    best_cost[cid] = total
                    choice[cid] = i
                    changed = True
    return choice


def sweep_random_choice(
    problem: FrozenProblem, rng: random.Random, fallback: Optional[Choice] = None
) -> Choice:
    """Random bottom-up choice by whole passes over the unchosen classes, in
    id order, until a pass chooses nothing.  Pins the worklist
    ``FrozenProblem.random_choice`` (same rng draws, same dict order)."""
    chosen: Choice = {}
    remaining = set(problem.nodes)
    progress = True
    while remaining and progress:
        progress = False
        for cid in sorted(remaining):
            candidates = [
                i
                for i, kids in enumerate(problem.children[cid])
                if all(ch in chosen for ch in kids)
            ]
            if not candidates:
                continue
            chosen[cid] = candidates[rng.randrange(len(candidates))]
            remaining.discard(cid)
            progress = True
    if fallback:
        for cid in remaining:
            if cid in fallback:
                chosen[cid] = fallback[cid]
    return chosen
