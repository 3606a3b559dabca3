"""Batched e-matching: all rule patterns compiled into one shared-prefix trie.

This is the saturation engine's only e-matcher.  Searching every rule on its
own would scan every e-class's node list up to once per rule per iteration
(29 rules, 29 scans) and re-canonicalize children on every scan.  The batched
matcher inverts the loop:

* every rule LHS is compiled into a *slot-normalized key sequence* (pattern
  variables renamed to positional slots in first-occurrence preorder, so
  ``(AND ?a ?b)`` and ``(AND ?x ?y)`` compile identically);
* sequences sharing a root operator are merged into a **trie** — all
  AND-rooted rules share one enumeration of AND nodes, and rules whose first
  child keys coincide (e.g. the leading ``?a`` of ``and-comm``, ``and-idem``
  and ``absorb-and``) share the child-fold itself;
* matching runs over per-search class views built straight from the object
  model (:func:`class_views`): one scan of ``egraph.classes`` buckets every
  class's canonical e-nodes by operator, and every rule under every trie
  branch reads those buckets — the e-graph is traversed once total instead
  of once per rule.  The views and the edge memo are locals of
  :meth:`BatchedMatcher.search` and are freed when it returns, so neither is
  alive during the apply phase;
* every trie edge is pre-compiled into a dispatch form (variable bind,
  symbol check, flat all-variable operator, or general nested operator) so
  the hot fold runs tight list loops instead of recursive generators.

Parity with per-pattern e-matching is exact, not approximate: candidate
classes are visited in sorted order, root nodes in ``EClass.nodes`` order,
child substitution frontiers are capped at
:data:`~repro.egraph.pattern.MAX_SUBSTITUTIONS_PER_NODE` with the same fold
semantics, and per-rule ``limit`` truncation keeps the same prefix.  The
per-pattern reference lives in ``tests/oracles.py`` and is fuzzed against
this module (``tests/test_batched.py``).

Scheduling hooks: rules banned by the
:class:`~repro.engine.scheduler.BackoffScheduler` for an iteration are pruned
from the trie walk (a branch whose subtree holds no active rule is skipped),
each rule stops at its own cap (the scheduler's ``search_cap``), and branch
order is a free knob — :func:`priorities_from_attribution` turns a rule-yield
attribution payload (``emorphic explain``) into per-rule priorities so
branches whose rules historically produce surviving e-nodes are walked first
and fill their match budgets before low-yield ones.  The walk also counts
trie-edge visits per rule (:meth:`BatchedMatcher.rule_visits`): the shared
walk cannot be timed per rule, but its visit counts attribute it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import VAR
from repro.egraph.pattern import MAX_SUBSTITUTIONS_PER_NODE, Match, Pattern, PatternNode
from repro.egraph.rewrite import Rewrite

#: A compiled subpattern key: ("var", slot) | ("sym", name) | ("op", op, (keys...)).
Key = Tuple

def _key_of(node: PatternNode, slots: Dict[str, int], order: List[str]) -> Key:
    """Slot-normalize one pattern node (first-occurrence slot numbering)."""
    if node.kind == "pattern_var":
        slot = slots.get(node.name)
        if slot is None:
            slot = len(order)
            slots[node.name] = slot
            order.append(node.name)
        return ("var", slot)
    if node.kind == "symbol":
        return ("sym", node.name)
    return ("op", node.op, tuple(_key_of(child, slots, order) for child in node.children))


def compile_pattern(pattern: Pattern) -> Tuple[Optional[str], Tuple[Key, ...], Tuple[str, ...]]:
    """Compile an LHS into (root op, child keys, slot -> variable names).

    Returns ``root_op=None`` for patterns whose root is not an operator (a
    bare ``?x`` or symbol LHS); :class:`BatchedMatcher` rejects those.
    """
    slots: Dict[str, int] = {}
    order: List[str] = []
    root = pattern.root
    if root.kind != "op":
        return None, (), ()
    child_keys = tuple(_key_of(child, slots, order) for child in root.children)
    return root.op, child_keys, tuple(order)


def _key_slots(key: Key) -> Set[int]:
    """All variable slots occurring anywhere inside a structural key."""
    kind = key[0]
    if kind == "var":
        return {key[1]}
    if kind == "sym":
        return set()
    out: Set[int] = set()
    for child in key[2]:
        out |= _key_slots(child)
    return out


def _compile_key(key: Key, bound: Set[int]) -> Tuple:
    """Lower a structural key to its dispatch form for the hot loop.

    ``('v', slot)`` binds/checks a variable, ``('s', name)`` checks a symbol
    leaf, ``('f', op, slots, cacheable)`` matches an operator whose children
    are all variables (the overwhelmingly common case — one tight loop, no
    recursion), and ``('d', op, children, cacheable)`` is the general nested
    form.

    ``bound`` is the set of slots already bound by the time this key is
    matched (the path through the trie binds the same slots for every
    substitution that reaches it, so this is a compile-time fact).  An
    operator key whose slots are disjoint from ``bound`` is *cacheable*: its
    matches against a class are the incoming substitution extended by binds
    that depend only on (key, class), so one evaluation per (key, class) per
    search serves every substitution and every parent e-node reaching that
    class.
    """
    kind = key[0]
    if kind == "var":
        return ("v", key[1])
    if kind == "sym":
        return ("s", key[1])
    child_keys = key[2]
    cacheable = not (_key_slots(key) & bound)
    if all(ck[0] == "var" for ck in child_keys):
        return ("f", key[1], tuple(ck[1] for ck in child_keys), cacheable)
    # Children fold left to right, so child i is matched with the slots of
    # children 0..i-1 (plus this key's inherited context) already bound.
    child_bound = set(bound)
    compiled_children = []
    for ck in child_keys:
        compiled_children.append(_compile_key(ck, child_bound))
        child_bound |= _key_slots(ck)
    return ("d", key[1], tuple(compiled_children), cacheable)


#: A substitution in the hot loop: a fixed-width tuple indexed by slot, with
#: ``None`` marking an unbound slot.  Class ids are non-negative ints, so
#: ``None`` can never collide with a binding; tuple indexing and slicing beat
#: dict lookups and copies by a wide margin in the innermost fold.
Subst = Tuple

_BLANKS: Dict[int, Subst] = {}


def _blank(width: int) -> Subst:
    """The interned all-unbound substitution tuple of a given slot width."""
    blank = _BLANKS.get(width)
    if blank is None:
        blank = _BLANKS[width] = (None,) * width
    return blank


#: The memo entry of a cacheable key that matched nothing in a class.
_NO_BINDS: Tuple = ()

#: Per-search memo of cacheable operator keys: ``{id(compiled): {class: binds}}``.
Memo = Dict[int, Dict[int, Sequence[Subst]]]

#: Per-search canonical nodes: ``op -> class -> [children, ...]``.
NodesByOp = Dict[str, Dict[int, List[Tuple[int, ...]]]]

#: Per-search VAR leaf names: ``class -> {payload, ...}`` (VAR classes only).
Payloads = Dict[int, Set[str]]

_NO_CLASSES: Dict[int, List[Tuple[int, ...]]] = {}
_NO_PAYLOADS: FrozenSet[str] = frozenset()


def class_views(egraph: EGraph) -> Tuple[NodesByOp, Payloads]:
    """Every class's canonical e-nodes, bucketed by operator (one scan).

    ``nodes[op][class]`` lists the canonical child tuples of the class's
    ``op`` nodes in ``EClass.nodes`` order (multiplicity included), and each
    ``nodes[op]`` holds its classes in ascending id order — the candidate
    order of a rule rooted at ``op``.  ``EClass.nodes`` can hold stale child
    ids (congruence repair canonicalizes a class's nodes only when that class
    itself is repaired), so children go through ``find``; a node whose
    children are all canonical reuses its ``children`` tuple as is.
    """
    nodes: NodesByOp = {}
    payloads: Payloads = {}
    parent = egraph.union_find.parent
    find = egraph.union_find.find
    classes = egraph.classes
    for cid in sorted(classes):
        for node in classes[cid].nodes:
            children = node.children
            for child in children:
                if parent[child] != child:
                    children = tuple([find(c) for c in children])
                    break
            per_class = nodes.get(node.op)
            if per_class is None:
                per_class = nodes[node.op] = {}
            bucket = per_class.get(cid)
            if bucket is None:
                per_class[cid] = [children]
            else:
                bucket.append(children)
            if node.payload is not None and node.op == VAR:
                payloads.setdefault(cid, set()).add(node.payload)
    return nodes, payloads


def _memo_binds(
    compiled: Tuple, class_id: int, width: int, nodes: NodesByOp, payloads: Payloads, memo: Memo
) -> Sequence[Subst]:
    """The binds of a cacheable operator key in a class, evaluated once per search."""
    per_class = memo[id(compiled)]
    binds = per_class.get(class_id)
    if binds is None:
        binds = _match_many(
            (compiled[0], compiled[1], compiled[2], False),
            class_id, (_blank(width),), nodes, payloads, MAX_SUBSTITUTIONS_PER_NODE, memo,
        ) or _NO_BINDS
        per_class[class_id] = binds
    return binds


def _match_many(
    compiled: Tuple,
    class_id: int,
    substs: Sequence[Subst],
    nodes: NodesByOp,
    payloads: Payloads,
    cap: int,
    memo: Memo,
) -> Sequence[Subst]:
    """Fold a whole substitution frontier through one compiled key at once.

    Returns at most ``cap`` extended substitutions in the per-pattern
    reference's order: substitution-major, then the class's ``EClass.nodes``
    order (the frontier-batched form of the reference's
    ``for s in stack: for candidate in _match_node(...)`` capped fold).
    Batching the frontier means the class view and node list are fetched
    once per (key, class) instead of once per substitution, and
    variable/symbol children inside nested keys never pay a function call.

    ``memo`` holds *cacheable* operator keys (slots disjoint from everything
    bound upstream — see :func:`_compile_key`) per (key, class) for the
    duration of one search: the cached binds touch only the key's own slots,
    so merging them into each incoming substitution reproduces the direct
    fold exactly, including candidate order and cap prefix.
    """
    tag = compiled[0]
    out: List[Subst] = []
    if tag == "v":
        # <=1 result per input and len(substs) <= cap, so no truncation.
        slot = compiled[1]
        for s in substs:
            bound = s[slot]
            if bound is None:
                out.append(s[:slot] + (class_id,) + s[slot + 1:])
            elif bound == class_id:
                out.append(s)
        return out
    if tag == "s":
        return list(substs) if compiled[1] in payloads.get(class_id, _NO_PAYLOADS) else []
    if compiled[3]:
        # Cacheable operator key: binds depend only on (key, class).
        binds = _memo_binds(compiled, class_id, len(substs[0]), nodes, payloads, memo)
        if not binds:
            return []
        first = substs[0]
        if len(substs) == 1 and first.count(None) == len(first):
            return binds if len(binds) <= cap else binds[:cap]
        for s in substs:
            for bind in binds:
                out.append(tuple([a if b is None else b for a, b in zip(s, bind)]))
                if len(out) >= cap:
                    return out
        return out
    class_nodes = nodes.get(compiled[1], _NO_CLASSES).get(class_id)
    if not class_nodes:
        return []
    if tag == "f":
        slots = compiled[2]
        arity = len(slots)
        for s in substs:
            for children in class_nodes:
                if len(children) != arity:
                    continue
                cur = None  # list copy of ``s``, made on first new binding
                ok = True
                for i in range(arity):
                    cid = children[i]
                    sl = slots[i]
                    bound = s[sl] if cur is None else cur[sl]
                    if bound is None:
                        if cur is None:
                            cur = list(s)
                        cur[sl] = cid
                    elif bound != cid:
                        ok = False
                        break
                if ok:
                    out.append(s if cur is None else tuple(cur))
                    if len(out) >= cap:
                        return out
        return out
    # tag == "d": general nested operator.  Per (subst, node), the children
    # fold through an inner frontier with the reference's per-node cap.
    child_keys = compiled[2]
    arity = len(child_keys)
    inner_cap = MAX_SUBSTITUTIONS_PER_NODE
    for s in substs:
        for children in class_nodes:
            if len(children) != arity:
                continue
            stack = [s]
            for i in range(arity):
                ck = child_keys[i]
                ccid = children[i]
                ctag = ck[0]
                if ctag == "v":
                    slot = ck[1]
                    frontier = []
                    for t in stack:
                        bound = t[slot]
                        if bound is None:
                            frontier.append(t[:slot] + (ccid,) + t[slot + 1:])
                        elif bound == ccid:
                            frontier.append(t)
                elif ctag == "s":
                    frontier = stack if ck[1] in payloads.get(ccid, _NO_PAYLOADS) else []
                else:
                    frontier = _match_many(ck, ccid, stack, nodes, payloads, inner_cap, memo)
                stack = frontier
                if not stack:
                    break
            else:
                out.extend(stack)
                if len(out) >= cap:
                    return out[:cap]
    return out


@dataclass
class _Terminal:
    """A rule completing at a trie node: index plus its slot -> name map."""

    rule_index: int
    names: Tuple[str, ...]


@dataclass
class _TrieNode:
    """One shared-prefix position: outgoing edges plus completed rules."""

    #: ``(structural key, compiled dispatch form, child node)`` per edge.
    edges: List[Tuple[Key, Tuple, "_TrieNode"]] = field(default_factory=list)
    terminals: List[_Terminal] = field(default_factory=list)
    #: Every rule index reachable in this subtree (ban pruning reads this).
    rules: Set[int] = field(default_factory=set)
    #: Per-search: ``rules`` restricted to the search's active set (stamped
    #: by a prepass so the walk tests a precomputed set).
    active: Set[int] = field(default_factory=set)
    #: Per-search: how many times the walk folded a frontier into this node
    #: (root nodes: once per root e-node).
    visits: int = 0

    def child(self, key: Key, bound: Set[int]) -> "_TrieNode":
        """The edge for ``key``, created on first use (prefix sharing).

        ``bound`` is the slots bound along the path to this node; a trie
        path is unique, so every rule sharing the edge passes the same set
        and the compiled form's cacheability is a property of the edge.
        """
        for existing, _, node in self.edges:
            if existing == key:
                return node
        node = _TrieNode()
        self.edges.append((key, _compile_key(key, bound), node))
        return node

    def walk(self):
        """This node and every node below it, preorder."""
        yield self
        for _, _, child in self.edges:
            yield from child.walk()


def priorities_from_attribution(attribution) -> Dict[str, float]:
    """Per-rule branch priorities from a rule-yield attribution payload.

    Accepts either a ``RuleAttribution`` object or its ``to_dict`` form (what
    ``emorphic explain --json`` writes) and returns ``rule -> surviving ANDs``
    — the rule-yield signal.  Rules whose matches never survive extraction
    get priority 0 and sort last in the trie walk.
    """
    if hasattr(attribution, "to_dict"):
        attribution = attribution.to_dict()
    rules = attribution.get("rules", {})
    return {
        name: float(stats.get("surviving_ands", 0) or 0)
        for name, stats in rules.items()
        if name != "original"
    }


class BatchedMatcher:
    """All rules' LHS patterns as one trie walked over per-search class views.

    ``rule_priorities`` (optional, e.g. from
    :func:`priorities_from_attribution`) orders sibling branches by the best
    yield of any rule in their subtree; without it, branches keep rule
    registration order.  Ordering is purely a work-scheduling knob — each
    rule's match stream is independent of its siblings, so results are
    identical under any branch order.  Every rule LHS must have an operator
    root (a bare ``?x`` or symbol LHS raises ``ValueError``).
    """

    def __init__(
        self,
        rules: Sequence[Rewrite],
        rule_priorities: Optional[Dict[str, float]] = None,
    ) -> None:
        self.rules = list(rules)
        #: ``(root op, subtree, blank substitution)`` per distinct root
        #: operator; the blank is the all-``None`` tuple sized to the widest
        #: rule under that root, so every substitution in the subtree shares
        #: one fixed slot layout.
        self.roots: List[Tuple[str, _TrieNode, Subst]] = []
        by_root: Dict[str, _TrieNode] = {}
        widths: Dict[str, int] = {}
        for index, rule in enumerate(self.rules):
            root_op, child_keys, names = compile_pattern(rule.lhs)
            if root_op is None:
                raise ValueError(
                    f"rule {rule.name!r} has a non-operator LHS root ({rule.lhs}); "
                    "the batched matcher needs an operator at the root"
                )
            node = by_root.get(root_op)
            if node is None:
                node = by_root[root_op] = _TrieNode()
            widths[root_op] = max(widths.get(root_op, 0), len(names))
            node.rules.add(index)
            bound: Set[int] = set()
            for key in child_keys:
                node = node.child(key, bound)
                node.rules.add(index)
                bound |= _key_slots(key)
            node.terminals.append(_Terminal(rule_index=index, names=names))
        self.roots = [(op, node, _blank(widths[op])) for op, node in by_root.items()]
        if rule_priorities:
            self._order_branches(rule_priorities)

    def _order_branches(self, priorities: Dict[str, float]) -> None:
        """Stable-sort every edge list by descending best subtree yield."""

        def best(rules: Set[int]) -> float:
            return max((priorities.get(self.rules[i].name, 0.0) for i in rules), default=0.0)

        self.roots.sort(key=lambda root: -best(root[1].rules))
        for _, root, _ in self.roots:
            for node in root.walk():
                node.edges.sort(key=lambda edge: -best(edge[2].rules))

    def _nodes(self):
        for _, root, _ in self.roots:
            yield from root.walk()

    # -- the walk --------------------------------------------------------------

    def search(
        self,
        egraph: EGraph,
        active: Sequence[int],
        limit: Optional[int] = None,
        caps: Optional[Dict[int, int]] = None,
    ) -> Dict[int, List[Match]]:
        """Match every active rule in one shared e-graph walk.

        ``active`` lists the rule indices the scheduler allows this iteration
        (banned rules' subtrees are pruned).  Each rule stops after
        ``min(limit, caps[rule])`` matches (either may be absent), keeping
        the same prefix as an untruncated search.  Returns matches per rule
        index, each list in per-pattern reference order.
        """
        active_set = set(active)
        caps = caps or {}
        limits: Dict[int, Optional[int]] = {}
        for index in active_set:
            cap = caps.get(index)
            limits[index] = limit if cap is None else cap if limit is None else min(cap, limit)
        out: Dict[int, List[Match]] = {index: [] for index in active_set}
        done: Set[int] = set()
        for node in self._nodes():
            node.active = node.rules & active_set
            node.visits = 0
        # The views and the memo of cacheable operator-key evaluations die
        # with this call; both are valid only while the e-graph is frozen.
        nodes, payloads = class_views(egraph)
        memo: Memo = defaultdict(dict)
        for root_op, tnode, blank in self.roots:
            if not tnode.active - done:
                continue
            initial = [blank]
            for cid, root_nodes in nodes.get(root_op, _NO_CLASSES).items():
                for children in root_nodes:
                    tnode.visits += 1
                    self._descend(
                        tnode, cid, children, 0, initial, done, out, limits, nodes, payloads, memo
                    )
                if not tnode.active - done:
                    break
        return out

    def rule_visits(self) -> Dict[int, int]:
        """Trie-edge visits of the last search, per active rule index.

        A rule is charged every visit of every trie node on its path, so a
        shared prefix counts once for each rule below it.  The walk is a
        pure function of the e-graph and the active set, so the counts are
        identical in every process.
        """
        visits: Dict[int, int] = {}
        for node in self._nodes():
            if node.visits:
                for index in node.active:
                    visits[index] = visits.get(index, 0) + node.visits
        return visits

    def _descend(
        self,
        tnode: _TrieNode,
        class_id: int,
        children: Tuple[int, ...],
        depth: int,
        substs: Sequence[Subst],
        done: Set[int],
        out: Dict[int, List[Match]],
        limits: Dict[int, Optional[int]],
        nodes: NodesByOp,
        payloads: Payloads,
        memo: Memo,
    ) -> None:
        """Fold one root node's children through the trie (shared prefixes
        fold once), emitting completed rules' substitutions along the way."""
        for terminal in tnode.terminals:
            index = terminal.rule_index
            if index not in tnode.active or index in done:
                continue
            matches = out[index]
            names = terminal.names
            limit = limits[index]
            for subst in substs:
                matches.append(
                    Match(class_id=class_id, substitution=dict(zip(names, subst)))
                )
                if limit is not None and len(matches) >= limit:
                    done.add(index)
                    break
        if depth >= len(children):
            return
        child_class = children[depth]
        cap = MAX_SUBSTITUTIONS_PER_NODE
        for _, compiled, child_node in tnode.edges:
            wanted = child_node.active
            if not wanted or (done and not wanted - done):
                continue
            child_node.visits += 1
            tag = compiled[0]
            # The same frontier-with-cap fold as the reference matcher: the
            # survivors are exactly the first <=cap substitutions in DFS
            # order.  Variable edges are folded inline (each subst maps to at
            # most one survivor, so the incoming bound of ``cap`` holds).
            if tag == "v":
                slot = compiled[1]
                frontier = []
                for s in substs:
                    bound = s[slot]
                    if bound is None:
                        frontier.append(s[:slot] + (child_class,) + s[slot + 1:])
                    elif bound == child_class:
                        frontier.append(s)
            elif tag == "s":
                frontier = (
                    list(substs)
                    if compiled[1] in payloads.get(child_class, _NO_PAYLOADS)
                    else []
                )
            elif compiled[3]:
                # Cacheable operator edge: the per-(key, class) binds are
                # shared by every substitution and every parent e-node, so
                # the hot path is one dict probe plus a merge.
                binds = _memo_binds(
                    compiled, child_class, len(substs[0]), nodes, payloads, memo
                )
                if not binds:
                    continue
                first = substs[0]
                if len(substs) == 1 and first.count(None) == len(first):
                    frontier = binds
                else:
                    frontier = []
                    for s in substs:
                        for bind in binds:
                            frontier.append(
                                tuple([a if b is None else b for a, b in zip(s, bind)])
                            )
                            if len(frontier) >= cap:
                                break
                        if len(frontier) >= cap:
                            break
            else:
                frontier = _match_many(
                    compiled, child_class, substs, nodes, payloads, cap, memo
                )
            if frontier:
                self._descend(
                    child_node, class_id, children, depth + 1, frontier,
                    done, out, limits, nodes, payloads, memo,
                )

    # -- introspection (tests, docs) -------------------------------------------

    def trie_stats(self) -> Dict[str, int]:
        """Sizes of the compiled trie (shared-prefix savings are visible as
        ``nodes`` being smaller than the sum of per-rule pattern sizes)."""
        nodes = list(self._nodes())
        return {
            "roots": len(self.roots),
            "nodes": len(nodes),
            "edges": sum(len(node.edges) for node in nodes),
            "rules": len(self.rules),
        }
