"""Independent output check: simulate a mapped netlist against its input AIG.

The flow's own ``cec`` pass compares the input AIG with the flow's final AIG,
never with the gate netlist that ``map`` emits.  This module closes that gap
with its own bit-parallel evaluator: each primary input gets a seeded random
word of ``width`` bits, the input AIG is evaluated node by node, every netlist
gate is evaluated from its library truth table, and each primary output must
agree bit for bit.  It reads only the plain data of the two circuits and uses
nothing from ``repro.verify`` or ``repro.aig.simulate``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence


def input_words(names: Sequence[str], width: int, seed: int) -> Dict[str, int]:
    """One seeded random ``width``-bit word per primary-input name."""
    rng = random.Random(seed)
    return {name: rng.getrandbits(width) for name in names}


def simulate_aig(aig, words: Dict[str, int], mask: int) -> List[int]:
    """Output words of ``aig`` for the given input words (keyed by PI name)."""
    values = [0] * len(aig.nodes)
    for var in aig.pis:
        values[var] = words[aig.nodes[var].name]

    def literal(lit: int) -> int:
        value = values[lit >> 1]
        return value ^ mask if lit & 1 else value

    for node in aig.nodes:
        if node.kind == "and":
            values[node.var] = literal(node.fanin0) & literal(node.fanin1)
    return [literal(lit) for lit, _ in aig.pos]


def gate_word(truth: int, inputs: Sequence[int], mask: int) -> int:
    """Evaluate a gate's truth table (bit ``m`` = output on minterm ``m``,
    input pin ``i`` = bit ``i`` of ``m``) over words of input values."""
    out = 0
    for minterm in range(1 << len(inputs)):
        if truth >> minterm & 1:
            term = mask
            for pin, word in enumerate(inputs):
                term &= word if minterm >> pin & 1 else ~word
            out |= term
    return out


def simulate_netlist(netlist, words: Dict[str, int], mask: int) -> List[int]:
    """Output words of a mapped netlist for the given input words."""
    nets = {name: words[name] for name in netlist.primary_inputs}
    for net, value in netlist.constants.items():
        nets[net] = mask if value else 0
    for inst in netlist.gates:
        missing = [net for net in inst.inputs if net not in nets]
        if missing:
            raise ValueError(f"gate {inst.gate.name} driving {inst.output} reads undriven net {missing[0]}")
        nets[inst.output] = gate_word(inst.gate.truth, [nets[net] for net in inst.inputs], mask)
    undriven = [net for net in netlist.primary_outputs if net not in nets]
    if undriven:
        raise ValueError(f"primary output net {undriven[0]} is undriven")
    return [nets[net] for net in netlist.primary_outputs]


def netlist_problems(aig, netlist, seed: int, width: int = 1024) -> List[str]:
    """Every way the netlist disagrees with ``aig``; empty when they agree."""
    pi_names = [aig.nodes[var].name for var in aig.pis]
    if sorted(pi_names) != sorted(netlist.primary_inputs):
        return ["netlist primary inputs differ from the input circuit's"]
    if len(netlist.primary_outputs) != len(aig.pos):
        return [f"netlist has {len(netlist.primary_outputs)} outputs, input has {len(aig.pos)}"]
    mask = (1 << width) - 1
    words = input_words(pi_names, width, seed)
    try:
        got = simulate_netlist(netlist, words, mask)
    except ValueError as exc:
        return [str(exc)]
    want = simulate_aig(aig, words, mask)
    return [
        f"output {index} ({aig.pos[index][1]}) differs from the input circuit in simulation"
        for index, (a, b) in enumerate(zip(want, got))
        if a != b
    ]
