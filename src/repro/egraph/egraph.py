"""The e-graph data structure: hashconsed e-nodes, e-classes, congruence closure.

The design follows egg (Willsey et al., POPL'21): e-nodes are immutable
(op, children, payload) triples where children are e-class ids; a union-find
tracks merged classes; and ``rebuild`` restores the congruence invariant
after a batch of unions, which is what makes rewriting fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.egraph.language import VAR, is_leaf_op, op_arity
from repro.egraph.unionfind import UnionFind


@dataclass(frozen=True)
class ENode:
    """An e-node: an operator applied to child e-classes.

    ``payload`` carries the symbol name for VAR nodes and is None otherwise.
    """

    op: str
    children: Tuple[int, ...] = ()
    payload: Optional[str] = None

    def canonicalize(self, uf: UnionFind) -> "ENode":
        return ENode(self.op, tuple(uf.find(c) for c in self.children), self.payload)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.payload is not None:
            return f"{self.op}({self.payload})"
        if self.children:
            return f"{self.op}({', '.join(map(str, self.children))})"
        return self.op


@dataclass
class EClass:
    """An equivalence class of e-nodes."""

    class_id: int
    nodes: List[ENode] = field(default_factory=list)
    parents: List[Tuple[ENode, int]] = field(default_factory=list)

    def __iter__(self) -> Iterator[ENode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


class EGraph:
    """An e-graph over the Boolean term language.

    Observers may register through :meth:`attach_observer`; they receive
    ``on_add(class_id, enode)`` for every newly created e-class and
    ``on_union(root, other)`` for every merge (including the upward merges
    performed during ``rebuild``), which is enough to maintain derived
    structures incrementally instead of rescanning the graph.  Current
    clients are the provenance recorder
    (:class:`repro.obs.provenance.ProvenanceLog`) and the resource sampler.
    One subtlety for observers: ``_repair`` re-canonicalizes existing e-nodes
    in place *without* firing ``on_add``, so an observer that keys records by
    (class id, e-node) must re-canonicalize both sides under the final
    union-find when it looks records up after the run.  Only the classes it
    repairs are re-canonicalized: ``EClass.nodes`` of other classes can keep
    stale child ids, so readers canonicalize children through :meth:`find`.  ``num_classes``/``num_nodes`` are O(1) counters
    maintained through ``add``/``union``/``_repair`` — the saturation engine
    polls them inside its hot loop.
    """

    def __init__(self) -> None:
        self.union_find = UnionFind()
        self.classes: Dict[int, EClass] = {}
        self.hashcons: Dict[ENode, int] = {}
        self.worklist: List[int] = []
        self.var_ids: Dict[str, int] = {}
        self.observers: List[object] = []
        self._num_classes = 0
        self._num_nodes = 0

    # -- observers -------------------------------------------------------------

    def attach_observer(self, observer: object) -> None:
        if observer not in self.observers:
            self.observers.append(observer)

    def detach_observer(self, observer: object) -> None:
        if observer in self.observers:
            self.observers.remove(observer)

    # -- core operations ------------------------------------------------------

    def find(self, class_id: int) -> int:
        return self.union_find.find(class_id)

    def add(self, enode: ENode) -> int:
        """Add an e-node (hashconsed); returns its e-class id."""
        enode = enode.canonicalize(self.union_find)
        existing = self.hashcons.get(enode)
        if existing is not None:
            return self.find(existing)
        class_id = self.union_find.make_set()
        eclass = EClass(class_id=class_id, nodes=[enode])
        self.classes[class_id] = eclass
        self.hashcons[enode] = class_id
        self._num_classes += 1
        self._num_nodes += 1
        for child in enode.children:
            self.classes[self.find(child)].parents.append((enode, class_id))
        if enode.op == VAR and enode.payload is not None:
            self.var_ids[enode.payload] = class_id
        for observer in self.observers:
            observer.on_add(class_id, enode)
        return class_id

    def add_term(self, op: str, children: Iterable[int] = (), payload: Optional[str] = None) -> int:
        """Convenience wrapper building the e-node in place."""
        children = tuple(self.find(c) for c in children)
        if len(children) != op_arity(op) and not (op == VAR and not children):
            raise ValueError(f"operator {op} expects {op_arity(op)} children, got {len(children)}")
        return self.add(ENode(op=op, children=children, payload=payload))

    def var(self, name: str) -> int:
        """Add (or look up) a VAR leaf."""
        if name in self.var_ids:
            return self.find(self.var_ids[name])
        return self.add(ENode(op=VAR, payload=name))

    def union(self, a: int, b: int) -> int:
        """Merge two e-classes; the congruence invariant is restored by ``rebuild``."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root = self.union_find.union(ra, rb)
        other = rb if root == ra else ra
        root_class = self.classes[root]
        other_class = self.classes.pop(other)
        root_class.nodes.extend(other_class.nodes)
        root_class.parents.extend(other_class.parents)
        self.worklist.append(root)
        self._num_classes -= 1
        for observer in self.observers:
            observer.on_union(root, other)
        return root

    def rebuild(self) -> int:
        """Restore hashcons/congruence invariants; returns number of upward merges."""
        merges = 0
        while self.worklist:
            todo = {self.find(c) for c in self.worklist}
            self.worklist = []
            for class_id in todo:
                merges += self._repair(class_id)
        return merges

    def _repair(self, class_id: int) -> int:
        merges = 0
        class_id = self.find(class_id)
        eclass = self.classes.get(class_id)
        if eclass is None:
            return 0
        # Re-canonicalise parents and merge any that became congruent.
        new_parents: Dict[ENode, int] = {}
        for parent_node, parent_class in eclass.parents:
            canonical = parent_node.canonicalize(self.union_find)
            if parent_node in self.hashcons:
                self.hashcons.pop(parent_node, None)
            existing = self.hashcons.get(canonical)
            parent_class = self.find(parent_class)
            if existing is not None and self.find(existing) != parent_class:
                self.union(parent_class, self.find(existing))
                parent_class = self.find(parent_class)
                merges += 1
            self.hashcons[canonical] = parent_class
            prev = new_parents.get(canonical)
            if prev is not None and self.find(prev) != parent_class:
                self.union(prev, parent_class)
                merges += 1
                parent_class = self.find(parent_class)
            new_parents[canonical] = parent_class
        eclass.parents = list(new_parents.items())
        # The congruence unions above may have merged this class into another:
        # its node list was extended into the winner (which is on the worklist
        # and will dedup the combined list itself), so deduplicating the dead
        # object here would double-subtract from the node counter.
        if self.find(class_id) != class_id:
            return merges
        # Deduplicate the class's own nodes after canonicalisation.
        seen: Dict[ENode, None] = {}
        for node in eclass.nodes:
            seen.setdefault(node.canonicalize(self.union_find), None)
        self._num_nodes -= len(eclass.nodes) - len(seen)
        eclass.nodes = list(seen.keys())
        return merges

    # -- queries ----------------------------------------------------------------

    def canonical_classes(self) -> Dict[int, EClass]:
        """Map of canonical class id -> EClass (only live classes)."""
        return {cid: ec for cid, ec in self.classes.items() if self.find(cid) == cid}

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def nodes_of(self, class_id: int) -> List[ENode]:
        return self.classes[self.find(class_id)].nodes

    def class_ids(self) -> List[int]:
        return list(self.canonical_classes().keys())

    def enodes(self) -> Iterator[Tuple[int, ENode]]:
        """Iterate (class id, e-node) pairs over all canonical classes."""
        for cid, eclass in self.canonical_classes().items():
            for node in eclass.nodes:
                yield cid, node

    def leaf_classes(self) -> List[int]:
        """Classes containing at least one leaf (VAR/CONST) e-node."""
        return [cid for cid, ec in self.canonical_classes().items() if any(is_leaf_op(n.op) for n in ec.nodes)]

    def parents_of(self, class_id: int) -> List[Tuple[ENode, int]]:
        """Canonicalised parents of a class."""
        eclass = self.classes[self.find(class_id)]
        return [(node.canonicalize(self.union_find), self.find(cid)) for node, cid in eclass.parents]

    def stats(self) -> Dict[str, int]:
        classes = self.canonical_classes()
        return {
            "classes": len(classes),
            "nodes": sum(len(ec.nodes) for ec in classes.values()),
            "vars": len(self.var_ids),
        }

    def check_invariants(self) -> None:
        """Raise if the hashcons or congruence invariant is violated (for tests)."""
        classes = self.canonical_classes()
        if len(classes) != self._num_classes:
            raise AssertionError(
                f"class counter {self._num_classes} != live classes {len(classes)}"
            )
        actual_nodes = sum(len(ec.nodes) for ec in classes.values())
        if actual_nodes != self._num_nodes:
            raise AssertionError(f"node counter {self._num_nodes} != live nodes {actual_nodes}")
        for cid, eclass in self.canonical_classes().items():
            for node in eclass.nodes:
                canonical = node.canonicalize(self.union_find)
                owner = self.hashcons.get(canonical)
                if owner is None:
                    raise AssertionError(f"node {canonical} of class {cid} missing from hashcons")
                if self.find(owner) != cid:
                    raise AssertionError(
                        f"hashcons maps {canonical} to class {self.find(owner)}, expected {cid}"
                    )
        # Congruence: two canonical identical nodes must be in the same class.
        seen: Dict[ENode, int] = {}
        for cid, node in self.enodes():
            canonical = node.canonicalize(self.union_find)
            if canonical in seen and seen[canonical] != cid:
                raise AssertionError(f"congruence violated for {canonical}")
            seen[canonical] = cid
