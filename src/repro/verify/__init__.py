"""Equivalence checking: CNF encoding, an incremental CDCL SAT solver, the
SAT-sweeping session shared by ``cec`` and ``dch``, and CEC."""

from repro.verify.cec import CecResult, check_equivalence, miter
from repro.verify.cnf import Cnf, tseitin_encode
from repro.verify.sat import SatResult, SatSolver
from repro.verify.session import SatSession

__all__ = [
    "Cnf",
    "tseitin_encode",
    "SatSolver",
    "SatResult",
    "SatSession",
    "miter",
    "check_equivalence",
    "CecResult",
]
