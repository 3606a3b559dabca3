"""Choice computation (a simplified ABC ``dch``).

Alternative network structures are synthesised (balanced / rewritten
variants), strashed into one union AIG together with the original, and
candidate equivalent node pairs are detected by bit-parallel simulation and
confirmed by budgeted proofs in one SAT session over the union AIG (see
:mod:`repro.verify.session`), so each proof reuses what earlier ones learnt
and merged.  The resulting equivalence classes ("choices") are consumed by
the technology mapper, which mitigates structural bias by covering across
all the choices.

Compared to the real ``dch``, the detection is the same
(simulation + SAT) but candidates are restricted to same-polarity pairs and
the number of verified pairs is capped to keep the pure-Python runtime sane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aig.graph import Aig, lit_var
from repro.aig.simulate import simulation_signatures
from repro.mapping.choices import ChoiceClasses
from repro.verify.session import SatSession


@dataclass
class ChoiceAig:
    """A union AIG plus equivalence classes over its variables."""

    aig: Aig
    classes: ChoiceClasses
    num_variants: int = 1
    sat_calls: int = 0

    @property
    def num_choices(self) -> int:
        return self.classes.num_classes_with_choices


def _append_variant(union: Aig, variant: Aig) -> Dict[int, int]:
    """Strash a variant (same PIs) into the union AIG; returns var map old->new lit."""
    old2new = {0: 0}
    for var_u, var_v in zip(union.pis, variant.pis):
        old2new[var_v] = var_u << 1
    for node in variant.and_nodes():
        f0 = old2new[lit_var(node.fanin0)] ^ (node.fanin0 & 1)
        f1 = old2new[lit_var(node.fanin1)] ^ (node.fanin1 & 1)
        old2new[node.var] = union.add_and(f0, f1)
    return old2new


def _cone_exceeds(aig: Aig, roots: Sequence[int], max_nodes: int) -> bool:
    """Whether the joint cone of ``roots`` has more than ``max_nodes`` AND nodes."""
    count = 0
    seen = set()
    stack = list(roots)
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        seen.add(var)
        node = aig.node(var)
        if node.is_and:
            count += 1
            if count > max_nodes:
                return True
            stack.append(lit_var(node.fanin0))
            stack.append(lit_var(node.fanin1))
    return False


def compute_choices(
    aig: Aig,
    variant_synthesizers: Optional[Sequence[Callable[[Aig], Aig]]] = None,
    sim_words: int = 8,
    max_pairs: int = 2000,
    max_cone: int = 300,
    conflict_budget: int = 500,
    seed: int = 2024,
    verify_with_sat: bool = True,
) -> ChoiceAig:
    """Compute a choice network for mapping (simplified ``dch``).

    ``variant_synthesizers`` default to AND-tree balancing and DAG-aware
    rewriting; each produces one alternative structure that is merged with the
    original into a union AIG.  Equivalence classes keep only pairs confirmed
    by SAT (or, when ``verify_with_sat`` is off, by simulation alone).  Each
    of at most ``max_pairs`` candidate pairs gets at most ``conflict_budget``
    conflicts; a pair whose joint cone has more than ``max_cone`` AND nodes is
    not tried.  The result's ``sat_calls`` counts the solver calls made.
    """
    if variant_synthesizers is None:
        from repro.opt.balance import balance
        from repro.opt.rewrite import rewrite

        variant_synthesizers = (balance, rewrite)

    union = aig.clone()
    num_variants = 1
    for synthesize in variant_synthesizers:
        try:
            variant = synthesize(aig)
        except Exception:
            continue
        _append_variant(union, variant)
        num_variants += 1

    sigs = simulation_signatures(union, num_words=sim_words, seed=seed)
    # Bucket AND nodes by signature; a bucket with both original and variant
    # members yields candidate choice pairs.
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for node in union.and_nodes():
        buckets.setdefault(sigs[node.var], []).append(node.var)

    session = SatSession(union) if verify_with_sat else None
    classes = ChoiceClasses()
    pairs_checked = 0
    for members in buckets.values():
        if len(members) < 2:
            continue
        rep = min(members)
        confirmed = [rep]
        for var in members:
            if var == rep:
                continue
            if pairs_checked >= max_pairs:
                break
            pairs_checked += 1
            if session is not None:
                if _cone_exceeds(union, (rep, var), max_cone):
                    continue
                if session.prove(rep << 1, var << 1, conflict_budget) != "equivalent":
                    continue
            confirmed.append(var)
        if len(confirmed) > 1:
            classes.members[rep] = confirmed
            for var in confirmed:
                classes.repr_of[var] = rep
    return ChoiceAig(
        aig=union,
        classes=classes,
        num_variants=num_variants,
        sat_calls=0 if session is None else session.sat_calls,
    )
