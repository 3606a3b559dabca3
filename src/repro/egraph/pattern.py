"""Patterns: parsing, match records and instantiation.

Patterns are written in a tiny s-expression syntax, e.g. ``(AND ?a (OR ?b ?c))``,
where ``?x`` is a pattern variable binding an e-class.  A match is a
(class, substitution) pair where some e-node of the class matches the
pattern; :class:`repro.engine.batched.BatchedMatcher` finds them for a whole
rule set at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import CONST0, CONST1, op_arity


@dataclass(frozen=True)
class PatternNode:
    """A node of a pattern tree.

    ``kind`` is "op", "pattern_var", or "symbol" (a concrete VAR leaf name).
    """

    kind: str
    op: str = ""
    name: str = ""
    children: Tuple["PatternNode", ...] = ()


@dataclass
class Pattern:
    """A parsed pattern with its variable list (in first-occurrence order)."""

    root: PatternNode
    variables: List[str] = field(default_factory=list)
    source: str = ""

    def __str__(self) -> str:
        return self.source or repr(self.root)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_pattern(text: str) -> Pattern:
    """Parse ``(AND ?a (NOT ?b))``-style pattern syntax."""
    tokens = _TOKEN_RE.findall(text)
    pos = 0
    variables: List[str] = []

    def parse() -> PatternNode:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos].upper()
            pos += 1
            children = []
            while tokens[pos] != ")":
                children.append(parse())
            pos += 1
            expected = op_arity(op)
            if len(children) != expected:
                raise ValueError(f"operator {op} expects {expected} children in pattern {text!r}")
            return PatternNode(kind="op", op=op, children=tuple(children))
        if tok.startswith("?"):
            name = tok[1:]
            if name not in variables:
                variables.append(name)
            return PatternNode(kind="pattern_var", name=name)
        if tok.upper() in (CONST0, CONST1):
            return PatternNode(kind="op", op=tok.upper())
        return PatternNode(kind="symbol", name=tok)

    root = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in pattern {text!r}")
    return Pattern(root=root, variables=variables, source=text)


Substitution = Dict[str, int]

#: Cap on the substitution cross-product explored per e-node during matching.
MAX_SUBSTITUTIONS_PER_NODE = 200


@dataclass
class Match:
    """One successful pattern match."""

    class_id: int
    substitution: Substitution


def instantiate(egraph: EGraph, pattern: PatternNode, subst: Substitution) -> int:
    """Build the pattern (under a substitution) into the e-graph; returns the class id."""
    if pattern.kind == "pattern_var":
        return egraph.find(subst[pattern.name])
    if pattern.kind == "symbol":
        return egraph.var(pattern.name)
    children = [instantiate(egraph, child, subst) for child in pattern.children]
    return egraph.add_term(pattern.op, children)
