"""Combinational equivalence checking (ABC's ``cec``) by SAT sweeping.

The two circuits are strashed into one union AIG over shared inputs, which
already merges their structurally identical nodes.  Random simulation of the
union looks for a cheap counterexample at the outputs and buckets every node
by its polarity-normalised signature.  One :class:`SatSession` then sweeps
the second circuit's nodes in topological order, proving each against the
first node of the first circuit in its bucket and merging it when proven, and
proves the output pairs last on the reduced problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var, var_lit
from repro.aig.simulate import WORD_MASK, simulation_signatures
from repro.verify.session import SatSession

#: Conflicts allowed for proving one internal node pair while sweeping.  A
#: pair that needs more is left unmerged; only the outputs must be decided.
SWEEP_CONFLICT_BUDGET = 50


@dataclass
class CecResult:
    """Result of a combinational equivalence check.

    ``conflicts`` and ``sat_calls`` total the whole sweeping session (the
    internal node pairs as well as the outputs); ``merged_pairs`` counts the
    pairs it proved equal and merged.  A counterexample, when present, maps PI
    names of the first circuit to values that make ``failing_output`` differ.
    """

    equivalent: bool
    status: str  # "equivalent", "counterexample", "unknown"
    counterexample: Optional[Dict[str, bool]] = None
    failing_output: Optional[int] = None
    conflicts: int = 0
    sat_calls: int = 0
    merged_pairs: int = 0

    def __bool__(self) -> bool:
        return self.equivalent

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for telemetry payloads (partition reports,
        orchestration results); the counterexample rides along when present."""
        data: Dict[str, object] = {
            "equivalent": self.equivalent,
            "status": self.status,
            "conflicts": self.conflicts,
        }
        if self.counterexample is not None:
            data["counterexample"] = dict(self.counterexample)
        if self.failing_output is not None:
            data["failing_output"] = self.failing_output
        return data


def miter(aig_a: Aig, aig_b: Aig) -> Aig:
    """Build a single-output miter AIG: OR of XORs of corresponding outputs."""
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("miter requires matching PI/PO counts")
    m = Aig(name=f"miter_{aig_a.name}_{aig_b.name}")
    pis = [m.add_pi(aig_a.node(v).name) for v in aig_a.pis]
    outs_a = _strash_into(m, aig_a, pis)
    outs_b = _strash_into(m, aig_b, pis)
    diffs = [m.add_xor(a, b) for a, b in zip(outs_a, outs_b)]
    m.add_po(m.add_or_multi(diffs), "diff")
    return m


def _strash_into(dst: Aig, src: Aig, pis: List[int]) -> List[int]:
    """Strash ``src`` into ``dst`` over the PI literals ``pis``; returns its output literals."""
    old2new = {0: 0}
    for var, lit in zip(src.pis, pis):
        old2new[var] = lit
    for node in src.and_nodes():
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[node.var] = dst.add_and(f0, f1)
    return [old2new[lit_var(lit)] ^ (lit & 1) for lit, _ in src.pos]


def _lit_words(sigs: Dict[int, Tuple[int, ...]], lit: int) -> Tuple[int, ...]:
    words = sigs[lit_var(lit)]
    return tuple(w ^ WORD_MASK for w in words) if lit_is_compl(lit) else words


def check_equivalence(
    aig_a: Aig,
    aig_b: Aig,
    sim_words: int = 8,
    conflict_budget: Optional[int] = None,
) -> CecResult:
    """Check that two AIGs are functionally equivalent.

    Each output pair gets at most ``conflict_budget`` conflicts; a pair that
    needs more makes the check end with status ``"unknown"``.
    """
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        return CecResult(equivalent=False, status="counterexample")

    union = Aig(name=f"union_{aig_a.name}_{aig_b.name}")
    pis = [union.add_pi(aig_a.node(v).name) for v in aig_a.pis]
    outs_a = _strash_into(union, aig_a, pis)
    num_a_nodes = union.num_nodes
    outs_b = _strash_into(union, aig_b, pis)

    # Fast path: random simulation to catch easy mismatches.
    sigs = simulation_signatures(union, num_words=sim_words, seed=99)
    for out_idx, (la, lb) in enumerate(zip(outs_a, outs_b)):
        for word, (wa, wb) in enumerate(zip(_lit_words(sigs, la), _lit_words(sigs, lb))):
            if wa != wb:
                bit = ((wa ^ wb) & -(wa ^ wb)).bit_length() - 1
                values = [bool((sigs[var][word] >> bit) & 1) for var in union.pis]
                return _counterexample(aig_a, values, out_idx, None)

    session = SatSession(union)
    _sweep(session, sigs, num_a_nodes, union.num_nodes)
    for out_idx, (la, lb) in enumerate(zip(outs_a, outs_b)):
        verdict = session.prove(la, lb, conflict_budget)
        if verdict == "different":
            return _counterexample(aig_a, session.input_values(), out_idx, session)
        if verdict == "unknown":
            return CecResult(equivalent=False, status="unknown", **_counters(session))
    return CecResult(equivalent=True, status="equivalent", **_counters(session))


def _sweep(session: SatSession, sigs: Dict[int, Tuple[int, ...]], num_a_nodes: int, num_nodes: int) -> None:
    """Merge the second circuit's nodes into the first's, bottom-up.

    Variables below ``num_a_nodes`` are the constant, the PIs and the first
    circuit's AND nodes; the rest are the second circuit's AND nodes that
    strashing did not already merge, in topological order.
    """
    first: Dict[Tuple[int, ...], int] = {}
    for var in range(num_nodes):
        words = sigs[var]
        phase = words[0] & 1 if words else 0
        key = tuple(w ^ WORD_MASK for w in words) if phase else words
        if var < num_a_nodes:
            first.setdefault(key, var_lit(var, bool(phase)))
        elif key in first:
            session.prove(first[key], var_lit(var, bool(phase)), SWEEP_CONFLICT_BUDGET)


def _counters(session: Optional[SatSession]) -> Dict[str, int]:
    if session is None:
        return {}
    return {
        "conflicts": session.conflicts,
        "sat_calls": session.sat_calls,
        "merged_pairs": session.merged_pairs,
    }


def _counterexample(aig: Aig, values: List[bool], out_idx: int, session: Optional[SatSession]) -> CecResult:
    cex = {aig.node(var).name or f"pi{i}": value for i, (var, value) in enumerate(zip(aig.pis, values))}
    return CecResult(
        equivalent=False,
        status="counterexample",
        counterexample=cex,
        failing_output=out_idx,
        **_counters(session),
    )


def prove_equivalent_vars(aig: Aig, var_a: int, var_b: int, conflict_budget: int = 2000) -> str:
    """Prove two internal AIG variables equal (same polarity).

    Returns "equivalent", "different", or "unknown".
    """
    return SatSession(aig).prove(var_a << 1, var_b << 1, conflict_budget)
