"""Bitmask branch-and-bound for maximum-weight independent sets.

This is the workhorse behind every brute-force oracle in the package.
It is deliberately independent of the decomposition machinery.  Each
search node first applies an exact reduction: a vertex at least as heavy
as its remaining neighbors together belongs to some maximum set, so it
is taken and its neighbors dropped, until no such vertex is left (this
takes every isolated vertex).  What remains is solved one connected
component at a time, each by include/exclude branching on a
maximum-degree vertex, pruned by the sum of the weights left against the
best value the caller can still use.
"""

from __future__ import annotations

from .errors import CapacityError
from .graph import components_masks

#: Search nodes one `max_weight_set` call may visit.
MAX_NODES = 20_000_000


def max_weight_set(adj_masks, weights, alive: int):
    """Exact MWIS restricted to the vertices in `alive`; the weights must
    be non-negative, as the reduction and the bound rely on it.

    Returns (best_weight, best_mask); raises CapacityError beyond
    MAX_NODES search nodes.
    """
    nodes = 0

    def weight(mask):
        total = 0
        while mask:
            b = mask & -mask
            total += weights[b.bit_length() - 1]
            mask ^= b
        return total

    def solve(mask, floor):
        # (w, m): the optimum of G[mask] and a set attaining it when the
        # optimum exceeds floor; otherwise some independent set m of
        # weight w <= floor, which the caller has no use for.
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise CapacityError(f"bnb: branch and bound exceeded MAX_NODES={MAX_NODES} nodes")
        got_w = got_m = 0
        again = True
        while again:
            again = False
            m = mask
            while m:
                b = m & -m
                v = b.bit_length() - 1
                nbrs = adj_masks[v] & mask
                if weights[v] >= weight(nbrs):
                    got_w += weights[v]
                    got_m |= b
                    mask &= ~(nbrs | b)
                    m &= mask
                    again = True
                else:
                    m ^= b
        left = weight(mask)
        for comp in components_masks(adj_masks, mask):
            bound = weight(comp)
            left -= bound
            need = floor - got_w - left
            if bound <= need:
                return got_w, got_m
            pick = max((v for v in range(comp.bit_length()) if comp >> v & 1),
                       key=lambda v: (adj_masks[v] & comp).bit_count())
            b = 1 << pick
            w, m = solve(comp & ~(adj_masks[pick] | b), need - weights[pick])
            w, m = w + weights[pick], m | b
            if bound - weights[pick] > max(need, w):
                w2, m2 = solve(comp ^ b, max(need, w))
                if w2 > w:
                    w, m = w2, m2
            got_w += w
            got_m |= m
            if w <= need:
                return got_w, got_m
        return got_w, got_m

    return solve(alive, -1)


def iter_independent_sets(conflict_masks):
    """Yield all independent position masks over a sequence of items.

    `conflict_masks[i]` holds, as bits over positions, the items that
    conflict with item i.  Enumeration order is depth-first with
    "skip item" explored before "take item", which makes downstream
    tie-breaking deterministic.

    The search runs on an explicit stack of (taken, closed) masks, where
    closed holds the items decided or in conflict with a taken one: it
    follows the "skip" branch at once and pushes the "take" branch for
    later, which is the recursive order with forced skips jumped over."""
    full = (1 << len(conflict_masks)) - 1
    stack = [(0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        mask, closed = pop()
        while True:
            low = ~closed & (closed + 1)
            if low > full:
                yield mask
                break
            push((mask | low, closed | low | conflict_masks[low.bit_length() - 1]))
            closed |= low
