"""SHA-256 digests of the cut layer's output on bench circuits.

The digests pin everything built on cut truth tables: cut enumeration,
SOP balancing, rewriting, and technology mapping with and without ``dch``
choices (whose cuts are remapped onto class representatives).  The fixture
``tests/fixtures/cut_layer_digests.json`` was recorded from the per-minterm
implementations that the bit-parallel kernel (``repro.opt.truth``)
replaced; ``test_opt_cuts_npn_sop.py`` recomputes it.  Rewrite the fixture
only for a deliberate change of cut-layer output:

    PYTHONPATH=src python tests/cut_layer_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.aig.graph import Aig
from repro.aig.io_aiger import aag_to_string
from repro.benchgen import epfl
from repro.mapping.cut_mapping import map_aig
from repro.mapping.library import default_library
from repro.opt.cuts import enumerate_cuts
from repro.opt.dch import compute_choices
from repro.opt.rewrite import rewrite
from repro.opt.sop_balance import sop_balance

FIXTURE = Path(__file__).parent / "fixtures" / "cut_layer_digests.json"
CIRCUITS = ("adder", "mem_ctrl")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cuts_text(aig: Aig, k: int) -> str:
    cuts = enumerate_cuts(aig, k=k)
    return repr([(var, [(c.leaves, c.truth) for c in cuts[var]]) for var in sorted(cuts)])


def _mapping_text(aig: Aig, choices=None) -> str:
    mapped = map_aig(aig, library=default_library(), choices=choices)
    gates = [(g.gate.name, g.output, tuple(g.inputs)) for g in mapped.netlist.gates]
    return repr((mapped.area, mapped.delay, gates))


def circuit_digests(name: str) -> Dict[str, str]:
    """Digest of each cut-layer result on bench circuit ``name``."""
    aig = epfl.build(name, preset="bench")
    choice = compute_choices(aig)
    return {
        "enumerate_cuts_k4": _sha(_cuts_text(aig, 4)),
        "enumerate_cuts_k6": _sha(_cuts_text(aig, 6)),
        "sop_balance_x2": _sha(aag_to_string(sop_balance(sop_balance(aig)))),
        "rewrite": _sha(aag_to_string(rewrite(aig))),
        "map_aig": _sha(_mapping_text(aig)),
        "map_aig_choices": _sha(_mapping_text(choice.aig, choice.classes)),
    }


def all_digests() -> Dict[str, Dict[str, str]]:
    """Digests of every pinned circuit."""
    return {name: circuit_digests(name) for name in CIRCUITS}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(all_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
