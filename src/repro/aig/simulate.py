"""Bit-parallel simulation of AIGs.

Simulation is used for quick equivalence filtering in CEC and for computing
truth tables of small cuts during rewriting and technology mapping.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.aig.graph import Aig, lit_is_compl, lit_var

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


def simulate(aig: Aig, input_patterns: Sequence[int], width: int = WORD_BITS) -> List[int]:
    """Simulate the AIG with one bit-parallel pattern word per PI.

    ``input_patterns`` holds one integer per primary input; bit *i* of the
    word is the value of that input in simulation vector *i*.  Returns one
    word per primary output.
    """
    if len(input_patterns) != aig.num_pis:
        raise ValueError(f"expected {aig.num_pis} input patterns, got {len(input_patterns)}")
    mask = (1 << width) - 1
    values: List[int] = [0] * aig.num_nodes
    for var, pattern in zip(aig.pis, input_patterns):
        values[var] = pattern & mask
    for node in aig.and_nodes():
        v0 = values[lit_var(node.fanin0)]
        if lit_is_compl(node.fanin0):
            v0 ^= mask
        v1 = values[lit_var(node.fanin1)]
        if lit_is_compl(node.fanin1):
            v1 ^= mask
        values[node.var] = v0 & v1
    outs = []
    for lit, _ in aig.pos:
        v = values[lit_var(lit)]
        if lit_is_compl(lit):
            v ^= mask
        outs.append(v & mask)
    return outs


def random_simulate(aig: Aig, num_words: int = 1, seed: int = 0, width: int = WORD_BITS) -> List[List[int]]:
    """Simulate with random patterns; returns ``num_words`` lists of PO words."""
    rng = random.Random(seed)
    results = []
    for _ in range(num_words):
        patterns = [rng.getrandbits(width) for _ in range(aig.num_pis)]
        results.append(simulate(aig, patterns, width))
    return results


def exhaustive_truth_tables(aig: Aig) -> List[int]:
    """Exhaustively compute PO truth tables for AIGs with up to 16 PIs."""
    n = aig.num_pis
    if n > 16:
        raise ValueError("exhaustive simulation limited to 16 inputs")
    width = 1 << n
    patterns = []
    for i in range(n):
        word = 0
        for minterm in range(width):
            if (minterm >> i) & 1:
                word |= 1 << minterm
        patterns.append(word)
    return simulate(aig, patterns, width)


def signature(aig: Aig, num_words: int = 4, seed: int = 12345) -> int:
    """A hash of random-simulation responses; equal AIGs get equal signatures."""
    acc = 0
    for words in random_simulate(aig, num_words=num_words, seed=seed):
        for w in words:
            acc = (acc * 1000003 + w) & ((1 << 128) - 1)
    return acc


def node_signatures(aig: Aig, num_words: int = 2, seed: int = 7) -> Dict[int, int]:
    """Per-variable simulation signatures used to detect candidate equivalences."""
    rng = random.Random(seed)
    sigs: Dict[int, int] = {0: 0}
    values: List[int] = [0] * aig.num_nodes
    for _ in range(num_words):
        for var in aig.pis:
            values[var] = rng.getrandbits(WORD_BITS)
        for node in aig.and_nodes():
            v0 = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                v0 ^= WORD_MASK
            v1 = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                v1 ^= WORD_MASK
            values[node.var] = v0 & v1
        for var in range(aig.num_nodes):
            sigs[var] = (sigs.get(var, 0) * 1000003 + values[var]) & ((1 << 128) - 1)
    return sigs


def simulation_signatures(aig: Aig, num_words: int, seed: int) -> Dict[int, Tuple[int, ...]]:
    """Per-variable simulation signatures over ``num_words`` random words."""
    rng = random.Random(seed)
    sigs: Dict[int, List[int]] = {var: [] for var in range(aig.num_nodes)}
    for _ in range(num_words):
        values = [0] * aig.num_nodes
        for var in aig.pis:
            values[var] = rng.getrandbits(WORD_BITS)
        for node in aig.and_nodes():
            v0 = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                v0 ^= WORD_MASK
            v1 = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                v1 ^= WORD_MASK
            values[node.var] = v0 & v1
        for var in range(aig.num_nodes):
            sigs[var].append(values[var])
    return {var: tuple(words) for var, words in sigs.items()}
