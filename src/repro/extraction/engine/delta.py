"""Delta-cost evaluation: incremental extraction cost under single-class flips.

The engine's move is a *flip* (one class changes its chosen e-node), and
:class:`DeltaCostEvaluator` prices it without a whole-graph sweep: it keeps
the cost decomposition live between moves (reference counts of the
extracted DAG in ``sum`` mode, per-class depths in ``depth`` mode, with
extraction parents read off the problem's static ``users`` index) so a flip
re-evaluates only the ancestor cone of the flipped class.  :func:`choice_cost`
is the from-scratch cost the chains start from.

A flip evaluates to the *identical* float a from-scratch re-derivation gives
whenever per-node costs are integer-valued (the default
``NodeCountCost``/``DepthCost``); the full re-derivation lives in
``tests/oracles.py`` as the parity oracle.  With arbitrary float weights the
``sum``-mode running total may drift by ulps between round boundaries; the
portfolio rebuilds evaluator state from the bare choice at every migration
barrier, so drift never accumulates across rounds.

Flips must stay within :meth:`FrozenProblem.flip_candidates` of the order the
evaluator was built with — that is what makes acyclicity an invariant and
lets the evaluator skip per-move cycle checks.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.extraction.engine.problem import Choice, FrozenProblem


def choice_cost(problem: FrozenProblem, choice: Choice) -> float:
    """From-scratch cost of a choice, root-reachable DAG semantics.

    The frozen-problem twin of :func:`repro.extraction.cost.extraction_cost`:
    ``sum`` counts every reachable class once; ``depth`` is the longest path
    from any root.
    """
    if problem.mode == "sum":
        reachable = problem.reachable(choice)
        return sum(problem.node_costs[cid][choice[cid]] for cid in reachable)

    memo: Dict[int, float] = {}
    for root in problem.roots:
        stack = [(root, False)]
        while stack:
            cid, expanded = stack.pop()
            if cid in memo:
                continue
            kids = problem.children[cid][choice[cid]]
            if not expanded:
                stack.append((cid, True))
                stack.extend((ch, False) for ch in kids if ch not in memo)
                continue
            child_depths = [memo[ch] for ch in kids]
            memo[cid] = problem.node_costs[cid][choice[cid]] + (
                max(child_depths) if child_depths else 0.0
            )
    return max((memo[r] for r in problem.roots), default=0.0)


def _deepest(depth: Dict[int, float], kids) -> float:
    """``max`` of the children's depths (0.0 for a leaf), without building a
    list per class."""
    deepest = 0.0
    if kids:
        deepest = depth[kids[0]]
        for ch in kids:
            if depth[ch] > deepest:
                deepest = depth[ch]
    return deepest


class DeltaCostEvaluator:
    """Incremental evaluator: a flip touches only the flipped class's cone.

    ``sum`` mode maintains reference counts over the root-reachable extracted
    DAG (multiplicity-aware, like ABC's deref/ref node counting): a flip
    adjusts the flipped class's own contribution and cascades references into
    subgraphs that (dis)appear.  ``depth`` mode maintains per-class depths
    and re-propagates depth changes upward in topological order, to the
    users of a changed class whose chosen node reads it.

    ``evals`` counts flips; ``touched`` counts the classes whose cached cost
    contribution was re-derived (the cone sizes behind the telemetry's
    ``mean_cone``).
    """

    def __init__(self, problem: FrozenProblem, choice: Choice, order: Optional[Dict[int, int]] = None):
        self.problem = problem
        self.choice: Choice = dict(choice)
        self.cost: float = 0.0
        self.evals: int = 0
        self.touched: int = 0
        if problem.mode == "sum":
            self._init_sum()
        else:
            self._order = order if order is not None else problem.toposort(self.choice)
            self._init_depth()

    # -- sum mode -----------------------------------------------------------

    def _init_sum(self) -> None:
        self._refs: Dict[int, int] = {}
        total = 0.0
        stack = []
        # Root multiplicity: every PO holds its own reference.
        for root in self.problem.roots:
            self._refs[root] = self._refs.get(root, 0) + 1
            if self._refs[root] == 1:
                stack.append(root)
        while stack:
            cid = stack.pop()
            total += self.problem.node_costs[cid][self.choice[cid]]
            for ch in self.problem.children[cid][self.choice[cid]]:
                self._refs[ch] = self._refs.get(ch, 0) + 1
                if self._refs[ch] == 1:
                    stack.append(ch)
        self.cost = total

    def _ref(self, cids) -> None:
        stack = list(cids)
        while stack:
            cid = stack.pop()
            self._refs[cid] = self._refs.get(cid, 0) + 1
            if self._refs[cid] == 1:
                self.touched += 1
                self.cost += self.problem.node_costs[cid][self.choice[cid]]
                stack.extend(self.problem.children[cid][self.choice[cid]])

    def _deref(self, cids) -> None:
        stack = list(cids)
        while stack:
            cid = stack.pop()
            self._refs[cid] -= 1
            if self._refs[cid] == 0:
                self.touched += 1
                self.cost -= self.problem.node_costs[cid][self.choice[cid]]
                stack.extend(self.problem.children[cid][self.choice[cid]])

    def _flip_sum(self, cid: int, node_idx: int) -> float:
        old_idx = self.choice[cid]
        if self._refs.get(cid, 0) == 0:
            # Unreachable class: no cost impact until something references it.
            self.choice[cid] = node_idx
            return self.cost
        old_kids = self.problem.children[cid][old_idx]
        self.cost += self.problem.node_costs[cid][node_idx] - self.problem.node_costs[cid][old_idx]
        self.choice[cid] = node_idx
        self.touched += 1
        # Reference the new cone before releasing the old one so shared
        # children never bounce through zero (keeps float totals tighter).
        self._ref(self.problem.children[cid][node_idx])
        self._deref(old_kids)
        return self.cost

    # -- depth mode ---------------------------------------------------------

    def _init_depth(self) -> None:
        # ``toposort`` fills ``order`` children first, so its insertion order
        # is already topological: one walk, no sort.  There is no parent map
        # to build — propagation reads the problem's static ``users`` index.
        children = self.problem.children
        node_costs = self.problem.node_costs
        choice = self.choice
        depth: Dict[int, float] = {}
        for cid in self._order:
            idx = choice[cid]
            depth[cid] = node_costs[cid][idx] + _deepest(depth, children[cid][idx])
        self._depth = depth
        self.cost = max((depth[r] for r in self.problem.roots), default=0.0)

    def _flip_depth(self, cid: int, node_idx: int) -> float:
        self.choice[cid] = node_idx
        # Propagate depth changes upward in topological order: a parent is
        # always re-derived after every changed child (parents sit strictly
        # later in the order), so each class settles in one recomputation.
        # The extraction parents of a class are its static users whose
        # chosen node is the one that uses it.
        choice = self.choice
        children = self.problem.children
        node_costs = self.problem.node_costs
        users = self.problem.users
        depth = self._depth
        order = self._order
        heap: List[tuple] = [(order[cid], cid)]
        queued = {cid}
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            idx = choice[current]
            new_depth = node_costs[current][idx] + _deepest(depth, children[current][idx])
            self.touched += 1
            if new_depth == depth[current]:
                continue
            depth[current] = new_depth
            for parent, i in users.get(current, ()):
                if choice.get(parent) == i and parent not in queued:
                    queued.add(parent)
                    heapq.heappush(heap, (order[parent], parent))
        self.cost = max((depth[r] for r in self.problem.roots), default=0.0)
        return self.cost

    # -- dispatch -----------------------------------------------------------

    def flip(self, cid: int, node_idx: int) -> float:
        """Re-point class ``cid`` at candidate ``node_idx``; returns the new
        total cost.  Flipping back to the previous index reverts the move."""
        self.evals += 1
        if self.problem.mode == "sum":
            return self._flip_sum(cid, node_idx)
        return self._flip_depth(cid, node_idx)

