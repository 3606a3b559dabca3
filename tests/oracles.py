"""Slow reference implementations kept only as differential test oracles.

* :func:`per_output_check_equivalence` is the CEC that production sweeping
  replaced: random simulation, then one fresh solver per output on a copy of
  the whole two-circuit CNF.
* :func:`per_pair_choice_classes` is the choice-class policy of ``dch`` with
  the per-pair prover it replaced: a fresh cone CNF and solver per pair.
* :class:`LinearScanSolver` is the CDCL solver with the linear-scan decision
  rule that the VSIDS heap replaced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.aig.simulate import random_simulate, simulation_signatures
from repro.mapping.choices import ChoiceClasses
from repro.verify.cec import CecResult
from repro.verify.cnf import Cnf, encode_miter_output, tseitin_encode
from repro.verify.sat import SatSolver


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
