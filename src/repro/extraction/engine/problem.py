"""The frozen extraction problem: the e-graph snapshot the engine works on.

Extraction runs on a *frozen* e-graph (saturation has finished), so the
engine front-loads every canonicalisation into one index-based structure:
per-class candidate e-nodes with pre-resolved child class ids and
pre-computed per-node costs.  Chains and evaluators operate on plain
``int`` class ids and node indices — no ``EGraph`` and no ``find`` calls on
the hot path.

Cycle safety is handled here too: :func:`toposort` orders the classes of a
concrete extraction, and :meth:`FrozenProblem.flip_candidates` keeps, per
class, only the candidate nodes whose children all precede the class in that
order.  Flips restricted to those candidates can never create a cyclic
extraction, so the move loop needs no per-move cycle check (see
``delta.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.cost import CostFunction, NodeCountCost

#: A solution: canonical class id -> index into ``FrozenProblem.nodes[cid]``.
Choice = Dict[int, int]


@dataclass
class FrozenProblem:
    """An extraction instance with every e-graph lookup pre-resolved.

    ``nodes[cid]`` lists the canonical candidate e-nodes of class ``cid``;
    ``children[cid][i]`` holds the (canonical) child class ids of
    ``nodes[cid][i]`` and ``node_costs[cid][i]`` its per-node cost.  ``mode``
    is the cost aggregation ("sum" counts every reachable class once, DAG
    semantics; "depth" is the longest root-to-leaf path), matching
    :func:`repro.extraction.cost.extraction_cost` exactly.
    """

    nodes: Dict[int, List[ENode]]
    children: Dict[int, List[Tuple[int, ...]]]
    node_costs: Dict[int, List[float]]
    roots: List[int]
    mode: str = "sum"

    @classmethod
    def build(
        cls,
        egraph: EGraph,
        roots: Sequence[int],
        cost: Optional[CostFunction] = None,
    ) -> "FrozenProblem":
        cost = cost or NodeCountCost()
        nodes: Dict[int, List[ENode]] = {}
        children: Dict[int, List[Tuple[int, ...]]] = {}
        node_costs: Dict[int, List[float]] = {}
        find = egraph.find
        for cid in sorted(egraph.canonical_classes()):
            eclass = egraph.classes[cid]
            seen = set()
            class_nodes: List[ENode] = []
            class_children: List[Tuple[int, ...]] = []
            class_costs: List[float] = []
            for enode in eclass.nodes:
                canonical = enode.canonicalize(egraph.union_find)
                if canonical in seen:
                    continue
                seen.add(canonical)
                class_nodes.append(canonical)
                class_children.append(tuple(find(c) for c in canonical.children))
                class_costs.append(cost.node_cost(canonical))
            nodes[cid] = class_nodes
            children[cid] = class_children
            node_costs[cid] = class_costs
        return cls(
            nodes=nodes,
            children=children,
            node_costs=node_costs,
            roots=[find(r) for r in roots],
            mode=cost.mode,
        )

    @property
    def num_classes(self) -> int:
        return len(self.nodes)

    @property
    def num_nodes(self) -> int:
        return sum(len(ns) for ns in self.nodes.values())

    def node_index(self, cid: int, enode: ENode) -> Optional[int]:
        """Index of ``enode`` among the class's candidates, if present."""
        for i, candidate in enumerate(self.nodes[cid]):
            if candidate == enode:
                return i
        return None

    def choice_from_extraction(self, extraction: Dict[int, ENode]) -> Choice:
        """Convert an e-node extraction into an index-based choice."""
        choice: Choice = {}
        for cid, enode in extraction.items():
            if cid not in self.nodes:
                continue
            idx = self.node_index(cid, enode)
            if idx is not None:
                choice[cid] = idx
        return choice

    def extraction_from_choice(self, choice: Choice) -> Dict[int, ENode]:
        """Convert an index-based choice back to an e-node extraction."""
        return {cid: self.nodes[cid][idx] for cid, idx in choice.items()}

    # -- initial solutions --------------------------------------------------

    def greedy_choice(self) -> Choice:
        """Bottom-up greedy fixpoint (the frozen-problem twin of
        :func:`repro.extraction.greedy.greedy_extract`); covers every class
        that is acyclically realizable."""
        best_cost: Dict[int, float] = {}
        choice: Choice = {}
        ordered = sorted(self.nodes)
        changed = True
        while changed:
            changed = False
            for cid in ordered:
                costs = self.node_costs[cid]
                kids = self.children[cid]
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
                    if self.mode == "sum":
                        total = costs[i] + sum(child_costs)
                    else:
                        total = costs[i] + (max(child_costs) if child_costs else 0.0)
                    if total < best_cost.get(cid, float("inf")) - 1e-12:
                        best_cost[cid] = total
                        choice[cid] = i
                        changed = True
        return choice

    def random_choice(self, rng: random.Random, fallback: Optional[Choice] = None) -> Choice:
        """Random bottom-up valid choice; classes that never become
        realizable fall back to ``fallback`` (normally the greedy choice)."""
        chosen: Choice = {}
        remaining = set(self.nodes)
        progress = True
        while remaining and progress:
            progress = False
            for cid in sorted(remaining):
                candidates = [
                    i
                    for i, kids in enumerate(self.children[cid])
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

    # -- cycle-safety structures -------------------------------------------

    def toposort(self, choice: Choice) -> Dict[int, int]:
        """Topological position of every chosen class (children first).

        Deterministic (classes visited in ascending id order), and defined
        only for acyclic choices — a cyclic choice raises ``ValueError``.
        """
        order: Dict[int, int] = {}
        on_stack: set = set()
        counter = 0
        for start in sorted(choice):
            if start in order:
                continue
            stack: List[Tuple[int, bool]] = [(start, False)]
            while stack:
                cid, expanded = stack.pop()
                if expanded:
                    on_stack.discard(cid)
                    order[cid] = counter
                    counter += 1
                    continue
                if cid in order:
                    continue
                if cid in on_stack:
                    raise ValueError(f"cyclic extraction through e-class {cid}")
                on_stack.add(cid)
                stack.append((cid, True))
                for ch in self.children[cid][choice[cid]]:
                    if ch not in order:
                        if ch not in choice:
                            raise ValueError(
                                f"choice is missing e-class {ch} (child of class {cid})"
                            )
                        stack.append((ch, False))
        return order

    def flip_candidates(self, order: Dict[int, int]) -> Dict[int, List[int]]:
        """Per class, the candidate node indices that are cycle-safe under
        ``order``: every child strictly precedes the class.  Any sequence of
        flips within these sets keeps ``order`` a valid topological order of
        the extraction, so acyclicity is an invariant, not a per-move check.
        """
        safe: Dict[int, List[int]] = {}
        for cid, position in order.items():
            indices = []
            for i, kids in enumerate(self.children[cid]):
                if all(ch in order and order[ch] < position for ch in kids):
                    indices.append(i)
            safe[cid] = indices
        return safe


@dataclass
class ProblemStats:
    """Summary counters of a frozen problem (for telemetry and benches)."""

    classes: int = 0
    nodes: int = 0
    flippable_classes: int = 0
    roots: int = 0

    @classmethod
    def of(cls, problem: FrozenProblem, safe: Optional[Dict[int, List[int]]] = None) -> "ProblemStats":
        flippable = 0
        if safe is not None:
            flippable = sum(1 for indices in safe.values() if len(indices) > 1)
        return cls(
            classes=problem.num_classes,
            nodes=problem.num_nodes,
            flippable_classes=flippable,
            roots=len(problem.roots),
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "classes": self.classes,
            "nodes": self.nodes,
            "flippable_classes": self.flippable_classes,
            "roots": self.roots,
        }
