"""A CDCL SAT solver with two-watched-literal propagation.

Feature set: first-UIP clause learning, VSIDS-style activity with decay (a
lazy max-heap picks the next decision), geometric restarts, solving under
assumptions, and an optional conflict budget so callers (e.g. the sweeping
session) can bail out on hard instances.

The solver is incremental: clauses may be added between :meth:`SatSolver.solve`
calls, and everything learnt under assumptions stays valid for later calls.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.verify.cnf import Cnf


@dataclass
class SatResult:
    """Outcome of a SAT call."""

    status: str  # "sat", "unsat", or "unknown" (budget exhausted)
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class SatSolver:
    """Incremental CDCL solver over a fixed set of variables."""

    def __init__(self, cnf: Cnf):
        self.num_vars = cnf.num_vars
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[int] = [0] * (self.num_vars + 1)  # 0 unassigned, 1 true, -1 false
        self.level: List[int] = [0] * (self.num_vars + 1)
        self.reason: List[Optional[int]] = [None] * (self.num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self._qhead = 0
        self.activity: List[float] = [0.0] * (self.num_vars + 1)
        # Lazy decision heap of (-activity, var): an entry is live while it
        # matches the variable's current activity and the variable is
        # unassigned.  Every unassigned variable has a live entry.
        self._heap: List[Tuple[float, int]] = [(0.0, var) for var in range(1, self.num_vars + 1)]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        for clause in cnf.clauses:
            self.add_clause(clause)

    # -- clause management ----------------------------------------------------

    def add_clause(self, clause: List[int]) -> None:
        """Add a clause; allowed before and between :meth:`solve` calls.

        The solver is always at decision level 0 between calls, and every
        call re-propagates the whole trail, so a clause that is unit or
        falsified under the root assignment takes effect on the next call.
        """
        if not self.ok:
            return
        clause = list(dict.fromkeys(clause))
        if any(-lit in clause for lit in clause):
            return  # tautology
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)

    # -- assignment -----------------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        if self._value(lit) == -1:
            return False
        if self._value(lit) == 1:
            return True
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        head = self._qhead
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watch_list = watches.get(false_lit)
            if not watch_list:
                continue
            new_list = []
            i = 0
            end = len(watch_list)
            while i < end:
                ci = watch_list[i]
                i += 1
                clause = clauses[ci]
                # Ensure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                first_value = assign[first] if first > 0 else -assign[-first]
                if first_value == 1:
                    new_list.append(ci)
                    continue
                # Look for a new literal to watch.
                for j in range(2, len(clause)):
                    other = clause[j]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1] = other
                        clause[j] = false_lit
                        watches.setdefault(other, []).append(ci)
                        break
                else:
                    new_list.append(ci)
                    if first_value == -1:
                        # Conflict: restore remaining watches and report.
                        new_list.extend(watch_list[i:])
                        watches[false_lit] = new_list
                        self._qhead = len(trail)
                        return ci
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    self.level[var] = len(self.trail_lim)
                    self.reason[var] = ci
                    trail.append(first)
            watches[false_lit] = new_list
        self._qhead = head
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.assign[var] == 0:
            heapq.heappush(self._heap, (-self.activity[var], var))

    def _analyze(self, conflict: int) -> tuple[List[int], int]:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause_idx: Optional[int] = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)

        while True:
            clause = self.clauses[clause_idx] if clause_idx is not None else []
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            clause_idx = self.reason[var]
            if counter == 0:
                break
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        back_level = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, back_level

    def _backtrack(self, level: int) -> None:
        heap = self._heap
        activity = self.activity
        while len(self.trail_lim) > level:
            limit = self.trail_lim.pop()
            while len(self.trail) > limit:
                var = abs(self.trail.pop())
                self.assign[var] = 0
                self.reason[var] = None
                heapq.heappush(heap, (-activity[var], var))
        self._qhead = len(self.trail)
        if len(heap) > 4 * self.num_vars + 64:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Drop dead heap entries: one live entry per unassigned variable."""
        self._heap = [(-self.activity[v], v) for v in range(1, self.num_vars + 1) if self.assign[v] == 0]
        heapq.heapify(self._heap)

    def _decide(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties."""
        heap = self._heap
        while heap:
            neg_act, var = heapq.heappop(heap)
            if self.assign[var] == 0 and -neg_act == self.activity[var]:
                return var  # default polarity: positive
        return None

    # -- main search ----------------------------------------------------------

    def solve(self, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
        """Solve the formula, optionally under assumptions and a conflict budget.

        The solver returns at decision level 0.  Units learnt during the call
        hold without the assumptions, so they are kept on the root trail.
        """
        if not self.ok:
            return SatResult(status="unsat")
        self._qhead = 0
        if self._propagate() is not None:
            self.ok = False
            return SatResult(status="unsat")
        learnt_units: List[int] = []
        result = self._search(list(assumptions or []), conflict_budget, learnt_units)
        self._backtrack(0)
        for lit in learnt_units:
            if not self._enqueue(lit, None):
                self.ok = False
        return result

    def _search(self, assumptions: List[int], conflict_budget: Optional[int], learnt_units: List[int]) -> SatResult:
        conflicts = 0
        decisions = 0
        restart_limit = 64
        for lit in assumptions:
            if self._value(lit) == -1:
                return SatResult(status="unsat")
            if self._value(lit) == 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    return SatResult(status="unsat")
        assumption_levels = len(self.trail_lim)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if conflict_budget is not None and conflicts > conflict_budget:
                    return SatResult(status="unknown", conflicts=conflicts, decisions=decisions)
                if len(self.trail_lim) <= assumption_levels:
                    return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, assumption_levels))
                if len(learnt) == 1:
                    learnt_units.append(learnt[0])
                    if not self._enqueue(learnt[0], None):
                        return SatResult(status="unsat", conflicts=conflicts, decisions=decisions)
                else:
                    # Watch the asserting literal and the highest-level other
                    # literal, preserving the two-watched-literal invariant
                    # across future backtracking.
                    high = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
                    learnt[1], learnt[high] = learnt[high], learnt[1]
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(idx)
                    self.watches.setdefault(learnt[1], []).append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= self.var_decay
                if conflicts % restart_limit == 0:
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(assumption_levels)
            else:
                var = self._decide()
                if var is None:
                    model = {v: self.assign[v] == 1 for v in range(1, self.num_vars + 1)}
                    return SatResult(status="sat", model=model, conflicts=conflicts, decisions=decisions)
                decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var, None)


def solve_cnf(cnf: Cnf, assumptions: Optional[List[int]] = None, conflict_budget: Optional[int] = None) -> SatResult:
    """Convenience wrapper: build a solver and solve once."""
    return SatSolver(cnf).solve(assumptions=assumptions, conflict_budget=conflict_budget)
