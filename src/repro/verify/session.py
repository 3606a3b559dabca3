"""One incremental SAT session over an AIG: the shared verification core.

A :class:`SatSession` Tseitin-encodes an AIG once, into one
:class:`~repro.verify.sat.SatSolver`, and proves pairs of AIG literals equal
under assumptions.  A pair is proven when both miter directions (``a & !b``
and ``!a & b``) are UNSAT; the session then adds the equivalence as two
binary clauses, so every later proof can use it.  Learnt clauses stay in the
solver too, so work done for one pair is never thrown away.

``cec`` sweeps a strashed union of two circuits with it, ``dch`` proves its
candidate choice pairs with it, and partition acceptance reaches it through
``cec``.  Both pick candidate pairs by
:func:`repro.aig.simulate.simulation_signatures` (after Mishchenko et al.,
"FRAIGs", 2005, and "Improvements to Combinational Equivalence Checking",
ICCAD 2006).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aig.graph import Aig, lit_is_compl, lit_var
from repro.verify.cnf import tseitin_encode
from repro.verify.sat import SatSolver


class SatSession:
    """An AIG encoded once into one incremental solver, with solver counters.

    ``conflicts`` and ``sat_calls`` total every :meth:`prove` of the session;
    ``merged_pairs`` counts the pairs proven equal.  After a ``"different"``
    verdict, ``model`` holds the distinguishing assignment.
    """

    def __init__(self, aig: Aig):
        cnf, self.var_map, _ = tseitin_encode(aig)
        self.pis = list(aig.pis)
        self.solver = SatSolver(cnf)
        self.conflicts = 0
        self.sat_calls = 0
        self.merged_pairs = 0
        self.model: Optional[Dict[int, bool]] = None

    def _cnf_lit(self, aig_lit: int) -> int:
        v = self.var_map[lit_var(aig_lit)]
        return -v if lit_is_compl(aig_lit) else v

    def input_values(self) -> List[bool]:
        """The PI values of the last distinguishing model, in PI order."""
        return [self.model.get(self.var_map[var], False) for var in self.pis]

    def prove(self, lit_a: int, lit_b: int, conflict_budget: Optional[int] = None) -> str:
        """Prove two AIG literals equal: "equivalent", "different" or "unknown".

        Both miter directions together get at most ``conflict_budget``
        conflicts.  A proven pair is merged into the solver.
        """
        a, b = self._cnf_lit(lit_a), self._cnf_lit(lit_b)
        if a == b:
            return "equivalent"
        budget = conflict_budget
        for assumptions in ([a, -b], [-a, b]):
            result = self.solver.solve(assumptions, conflict_budget=budget)
            self.sat_calls += 1
            self.conflicts += result.conflicts
            if result.status == "sat":
                self.model = result.model
                return "different"
            if result.status == "unknown":
                return "unknown"
            if budget is not None:
                budget -= result.conflicts
        self.solver.add_clause([-a, b])
        self.solver.add_clause([a, -b])
        self.merged_pairs += 1
        return "equivalent"
