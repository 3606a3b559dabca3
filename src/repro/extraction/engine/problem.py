"""The frozen extraction problem: the e-graph snapshot the engine works on.

Extraction runs on a *frozen* e-graph (saturation has finished), so the
engine front-loads every canonicalisation into one index-based structure:
per-class candidate e-nodes with pre-resolved child class ids and
pre-computed per-node costs, plus a static ``users`` index (which nodes
read each class).  Chains and evaluators operate on plain ``int`` class ids
and node indices — no ``EGraph`` and no ``find`` calls on the hot path —
and the initial solutions are worklists over ``users``, not sweeps over
every class.

Cycle safety is handled here too: :func:`toposort` orders the classes of a
concrete extraction, and :meth:`FrozenProblem.flip_candidates` keeps, per
class, only the candidate nodes whose children all precede the class in that
order.  Flips restricted to those candidates can never create a cyclic
extraction, so the move loop needs no per-move cycle check (see
``delta.py``).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

    Derived once from ``children`` (it depends only on the e-graph):
    ``class_ids`` in ascending order, and ``users[ch]``, the
    ``(parent class, node index)`` pairs of every node that has ``ch`` among
    its distinct children.  The worklist starts and the depth evaluator walk
    ``users`` instead of re-sweeping every class.
    """

    nodes: Dict[int, List[ENode]]
    children: Dict[int, List[Tuple[int, ...]]]
    node_costs: Dict[int, List[float]]
    roots: List[int]
    mode: str = "sum"
    class_ids: List[int] = field(init=False, repr=False)
    users: Dict[int, List[Tuple[int, int]]] = field(init=False, repr=False)
    #: Per-node tables are flat, class by class: node ``i`` of class ``cid``
    #: sits at ``_first_node[cid] + i``.  ``_arity`` counts its distinct
    #: child classes; ``_leaf_classes`` (ascending) have a childless node.
    _first_node: Dict[int, int] = field(init=False, repr=False)
    _arity: List[int] = field(init=False, repr=False)
    _leaf_classes: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.class_ids = sorted(self.nodes)
        self.users = {}
        self._first_node = {}
        self._arity = []
        self._leaf_classes = []
        for cid in self.class_ids:
            self._first_node[cid] = len(self._arity)
            class_kids = self.children[cid]
            if not all(class_kids):
                self._leaf_classes.append(cid)
            for i, kids in enumerate(class_kids):
                distinct = set(kids) if len(kids) > 1 else kids
                self._arity.append(len(distinct))
                entry = (cid, i)
                for ch in distinct:
                    self.users.setdefault(ch, []).append(entry)

    @classmethod
    def build(
        cls,
        egraph: EGraph,
        roots: Sequence[int],
        cost: Optional[CostFunction] = None,
    ) -> "FrozenProblem":
        cost = cost or NodeCountCost()
        node_cost = cost.node_cost
        uf = egraph.union_find
        # Every id resolved once; the e-graph is frozen, so the table stays valid.
        canon = [uf.find(i) for i in range(len(uf))]
        nodes: Dict[int, List[ENode]] = {}
        children: Dict[int, List[Tuple[int, ...]]] = {}
        node_costs: Dict[int, List[float]] = {}
        for cid in sorted(c for c in egraph.classes if canon[c] == c):
            seen = set()
            class_nodes: List[ENode] = []
            class_children: List[Tuple[int, ...]] = []
            class_costs: List[float] = []
            for enode in egraph.classes[cid].nodes:
                kids = tuple([canon[c] for c in enode.children])
                key = (enode.op, kids, enode.payload)
                if key in seen:
                    continue
                seen.add(key)
                if kids == enode.children:
                    kids = enode.children  # already canonical: keep the e-node and its tuple
                else:
                    enode = ENode(enode.op, kids, enode.payload)
                class_nodes.append(enode)
                class_children.append(kids)
                class_costs.append(node_cost(enode))
            nodes[cid] = class_nodes
            children[cid] = class_children
            node_costs[cid] = class_costs
        return cls(
            nodes=nodes,
            children=children,
            node_costs=node_costs,
            roots=[canon[r] for r in roots],
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
        that is acyclically realizable.

        A worklist run of the sweep fixpoint (``sweep_greedy_choice`` in
        ``tests/oracles.py``): the first sweep visits every class in id
        order; later, only a class with a child whose best cost changed is
        re-evaluated, at the point a sweep would next reach it — in the
        current sweep when its id is higher than the changed child's, in the
        next sweep otherwise.  A class whose children did not change cannot
        improve by more than the tolerance, so the skipped evaluations are
        no-ops and the result (dict order included) is the sweep's.
        """
        best_cost: Dict[int, float] = {}
        choice: Choice = {}
        children = self.children
        node_costs = self.node_costs
        users = self.users
        sum_mode = self.mode == "sum"
        inf = float("inf")
        sweep = list(self.class_ids)  # ascending, hence already a heap
        queued = set(sweep)
        while sweep:
            upcoming = set()
            while sweep:
                cid = heapq.heappop(sweep)
                queued.discard(cid)
                costs = node_costs[cid]
                kids = children[cid]
                improved = False
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
                    if sum_mode:
                        total = costs[i] + sum(child_costs)
                    else:
                        total = costs[i] + (max(child_costs) if child_costs else 0.0)
                    if total < best_cost.get(cid, inf) - 1e-12:
                        best_cost[cid] = total
                        choice[cid] = i
                        improved = True
                if not improved:
                    continue
                for user, _ in users.get(cid, ()):
                    if user <= cid:
                        upcoming.add(user)
                    elif user not in queued:
                        queued.add(user)
                        heapq.heappush(sweep, user)
            sweep = sorted(upcoming)
            queued = upcoming
        return choice

    def random_choice(self, rng: random.Random, fallback: Optional[Choice] = None) -> Choice:
        """Random bottom-up valid choice; classes that never become
        realizable fall back to ``fallback`` (normally the greedy choice).

        A worklist run of the pass loop (``sweep_random_choice`` in
        ``tests/oracles.py``): each node counts its unchosen distinct
        children, and a class is visited — in the pass and id order the
        sweep would reach it — only once one of its nodes is ready, so it
        draws from the same candidate list with the same rng state.
        """
        chosen: Choice = {}
        children = self.children
        users = self.users
        first_node = self._first_node
        missing = list(self._arity)  # per node: distinct children not chosen yet
        batch = list(self._leaf_classes)  # ascending, hence already a heap
        scheduled = set(batch)
        while batch:
            upcoming = []
            while batch:
                cid = heapq.heappop(batch)
                base = first_node[cid]
                candidates = [i for i in range(len(children[cid])) if not missing[base + i]]
                chosen[cid] = candidates[rng.randrange(len(candidates))]
                for user, i in users.get(cid, ()):
                    if user in chosen:
                        continue
                    slot = first_node[user] + i
                    missing[slot] -= 1
                    if not missing[slot] and user not in scheduled:
                        scheduled.add(user)
                        if user > cid:
                            heapq.heappush(batch, user)
                        else:
                            upcoming.append(user)
            batch = sorted(upcoming)
        if fallback and len(chosen) < len(self.nodes):
            # Built and thinned exactly like the sweep's ``remaining`` set, so
            # fallback classes are filled in the same (set iteration) order.
            # ``discard`` never resizes the table; ``difference_update`` may,
            # which would reorder it.
            remaining = set(self.nodes)
            for cid in chosen:
                remaining.discard(cid)
            for cid in remaining:
                if cid in fallback:
                    chosen[cid] = fallback[cid]
        return chosen

    def reachable(self, choice: Choice) -> set:
        """The classes reachable from the roots under ``choice``."""
        reachable = set()
        stack = list(self.roots)
        while stack:
            cid = stack.pop()
            if cid in reachable:
                continue
            reachable.add(cid)
            stack.extend(self.children[cid][choice[cid]])
        return reachable

    # -- cycle-safety structures -------------------------------------------

    def toposort(self, choice: Choice) -> Dict[int, int]:
        """Topological position of every chosen class (children first).

        Deterministic (classes visited in ascending id order), and defined
        only for acyclic choices — a cyclic choice raises ``ValueError``.
        """
        order: Dict[int, int] = {}
        on_stack: set = set()
        children = self.children
        for start in sorted(choice):
            if start in order:
                continue
            # Class ids are non-negative: ``~cid`` on the stack marks a class
            # whose children are all placed (no tuple per visit).
            stack = [start]
            while stack:
                cid = stack.pop()
                if cid < 0:
                    cid = ~cid
                    on_stack.discard(cid)
                    order[cid] = len(order)
                    continue
                if cid in order:
                    continue
                if cid in on_stack:
                    raise ValueError(f"cyclic extraction through e-class {cid}")
                on_stack.add(cid)
                stack.append(~cid)
                for ch in children[cid][choice[cid]]:
                    if ch not in order:
                        if ch not in choice:
                            raise ValueError(
                                f"choice is missing e-class {ch} (child of class {cid})"
                            )
                        stack.append(ch)
        return order

    def flip_candidates(
        self, order: Dict[int, int], classes: Optional[Iterable[int]] = None
    ) -> Dict[int, List[int]]:
        """Per class, the candidate node indices that are cycle-safe under
        ``order``: every child strictly precedes the class.  Any sequence of
        flips within these sets keeps ``order`` a valid topological order of
        the extraction, so acyclicity is an invariant, not a per-move check.

        ``classes`` restricts the result to those (ordered) classes — the
        chains ask only for the root-reachable ones; by default every class
        of ``order`` is covered.
        """
        children = self.children
        position_of = order.get
        safe: Dict[int, List[int]] = {}
        for cid in order if classes is None else classes:
            position = order[cid]
            indices = []
            for i, kids in enumerate(children[cid]):
                for ch in kids:
                    if position_of(ch, position) >= position:
                        break
                else:
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
