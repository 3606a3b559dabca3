"""CNF formulas and Tseitin encoding of AIGs.

CNF literals use the DIMACS convention: positive integers for variables,
negative for their complements.  Variable numbering starts at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var


@dataclass
class Cnf:
    """A CNF formula: a list of clauses over integer literals."""

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, clause: List[int]) -> None:
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"clause {clause} references unknown variable")
        self.clauses.append(list(clause))

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def tseitin_encode(
    aig: Aig, cnf: Optional[Cnf] = None, input_map: Optional[Dict[int, int]] = None
) -> Tuple[Cnf, Dict[int, int], List[int]]:
    """Tseitin-encode an AIG.

    Returns (cnf, var_map, output_literals) where ``var_map`` maps AIG
    variables to CNF variables and ``output_literals`` gives one signed CNF
    literal per primary output.  ``input_map``, when given, supplies the CNF
    variable of every PI, so a second circuit can share a first one's inputs.
    """
    if cnf is None:
        cnf = Cnf()
    var_map: Dict[int, int] = {}

    # Constant: a fresh variable forced to false.
    const_var = cnf.new_var()
    var_map[0] = const_var
    cnf.add_clause([-const_var])

    for var in aig.pis:
        var_map[var] = cnf.new_var() if input_map is None else input_map[var]

    def cnf_lit(aig_lit: int) -> int:
        v = var_map[lit_var(aig_lit)]
        return -v if lit_is_compl(aig_lit) else v

    for node in aig.and_nodes():
        out = cnf.new_var()
        var_map[node.var] = out
        a = cnf_lit(node.fanin0)
        b = cnf_lit(node.fanin1)
        # out <-> a & b
        cnf.add_clause([-out, a])
        cnf.add_clause([-out, b])
        cnf.add_clause([out, -a, -b])

    outputs = [cnf_lit(lit) for lit, _ in aig.pos]
    return cnf, var_map, outputs


def encode_miter_output(cnf: Cnf, lit_a: int, lit_b: int) -> int:
    """Add clauses for ``x = lit_a XOR lit_b`` and return CNF literal ``x``."""
    x = cnf.new_var()
    cnf.add_clause([-x, lit_a, lit_b])
    cnf.add_clause([-x, -lit_a, -lit_b])
    cnf.add_clause([x, -lit_a, lit_b])
    cnf.add_clause([x, lit_a, -lit_b])
    return x


def encode_or(cnf: Cnf, lits: List[int]) -> int:
    """Add clauses for ``y = OR(lits)`` and return CNF literal ``y``."""
    y = cnf.new_var()
    cnf.add_clause([-y] + lits)
    for lit in lits:
        cnf.add_clause([y, -lit])
    return y
