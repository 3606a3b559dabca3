"""Bit-parallel truth-table algebra on plain ints.

A truth table over ``n`` variables is an int whose bit *m* is the function's
value on minterm *m*, where bit *i* of *m* is the value of variable *i*.
Every operation here works on the whole table at once with cached masks and
shifts (the word-level tricks of ABC's ``kit`` truth package) instead of
looping over the ``2 ** n`` minterms.  Bits above ``2 ** n`` are ignored.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    """All ``2 ** n`` minterm bits of an ``n``-variable table."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def var_mask(i: int, n: int) -> int:
    """Minterms where variable ``i`` is 1: the truth table of variable ``i``."""
    block = 1 << i
    mask = ((1 << block) - 1) << block
    period = block << 1
    width = 1 << n
    while period < width:
        mask |= mask << period
        period <<= 1
    return mask


@lru_cache(maxsize=None)
def _swap_masks(a: int, b: int, n: int) -> Tuple[int, int, int, int]:
    """(keep, up, down, shift) that exchange variables ``a < b``."""
    ma, mb = var_mask(a, n), var_mask(b, n)
    up = ma & ~mb  # a=1, b=0: moves to a=0, b=1
    down = mb & ~ma  # a=0, b=1: moves to a=1, b=0
    keep = full_mask(n) & ~(up | down)
    return keep, up, down, (1 << b) - (1 << a)


def swap_vars(t: int, a: int, b: int, n: int) -> int:
    """The function with variables ``a`` and ``b`` exchanged."""
    if a == b:
        return t & full_mask(n)
    if a > b:
        a, b = b, a
    keep, up, down, s = _swap_masks(a, b, n)
    return (t & keep) | ((t & up) << s) | ((t & down) >> s)


def stretch(t: int, old_leaves: Sequence[int], new_leaves: Sequence[int]) -> int:
    """Re-express ``t`` over ``old_leaves`` as a function of ``new_leaves``.

    ``old_leaves`` must be a subsequence of ``new_leaves`` (both sorted cut
    leaves are).  The table is tiled to the new width, which adds the new
    variables on top as inputs the function ignores, and then each old
    variable is swapped from the top down into its slot (ABC's
    ``Kit_TruthStretch``).
    """
    n_old, n_new = len(old_leaves), len(new_leaves)
    t &= full_mask(n_old)
    if n_old == n_new:
        return t
    width = 1 << n_old
    while width < 1 << n_new:
        t |= t << width
        width <<= 1
    slot = n_new - 1
    for i in range(n_old - 1, -1, -1):
        while new_leaves[slot] != old_leaves[i]:
            slot -= 1
        if slot != i:
            t = swap_vars(t, i, slot, n_new)
        slot -= 1
    return t


def permute(t: int, perm: Sequence[int], n: int) -> int:
    """Apply an input permutation: new variable ``i`` reads old variable ``perm[i]``."""
    t &= full_mask(n)
    at = list(range(n))  # at[j]: the old variable now read at position j
    for i, want in enumerate(perm):
        if at[i] != want:
            j = at.index(want, i + 1)
            t = swap_vars(t, i, j, n)
            at[i], at[j] = at[j], at[i]
    return t


def flip_var(t: int, var: int, n: int) -> int:
    """Negate input ``var``: exchange the function's two cofactors of ``var``."""
    m = var_mask(var, n)
    s = 1 << var
    return ((t & m) >> s) | ((t & (full_mask(n) ^ m)) << s)


def cofactors(t: int, var: int, n: int) -> Tuple[int, int]:
    """(negative, positive) cofactors of ``var``, each over all ``n`` variables."""
    m = var_mask(var, n)
    s = 1 << var
    neg = t & (full_mask(n) ^ m)
    pos = t & m
    return neg | (neg << s), pos | (pos >> s)
