"""Bitmask branch-and-bound for maximum-weight independent sets.

This is the workhorse behind every brute-force oracle in the package.
It is deliberately independent of the decomposition machinery: plain
include/exclude branching on a maximum-degree vertex with a
sum-of-remaining-weights upper bound.
"""

from __future__ import annotations

from .errors import CapacityError

#: Branch nodes one `max_weight_set` call may visit.
MAX_NODES = 20_000_000


def max_weight_set(adj_masks, weights, alive: int):
    """Exact MWIS restricted to the vertices in `alive`.

    Returns (best_weight, best_mask); raises CapacityError beyond
    MAX_NODES branch nodes.
    """
    best_w = 0
    best_m = 0

    # Greedy seed by descending weight for an initial lower bound.
    order = sorted(_bits(alive), key=lambda v: (-weights[v], v))
    taken = 0
    blocked = 0
    gw = 0
    for v in order:
        b = 1 << v
        if blocked & b:
            continue
        taken |= b
        blocked |= b | adj_masks[v]
        gw += weights[v]
    if gw > best_w:
        best_w, best_m = gw, taken

    nodes = 0

    def dfs(mask, cur_w, cur_m):
        nonlocal best_w, best_m, nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise CapacityError(f"bnb: branch and bound exceeded MAX_NODES={MAX_NODES} nodes")
        # Harvest isolated vertices and compute the remaining-weight bound.
        rem_w = 0
        pick = -1
        pick_deg = -1
        m = mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if adj_masks[v] & mask == 0:
                cur_w += weights[v]
                cur_m |= b
                mask ^= b
            else:
                rem_w += weights[v]
                d = (adj_masks[v] & mask).bit_count()
                if d > pick_deg:
                    pick_deg = d
                    pick = v
            m ^= b
        if cur_w > best_w:
            best_w, best_m = cur_w, cur_m
        if not mask or cur_w + rem_w <= best_w:
            return
        pb = 1 << pick
        dfs(mask & ~(adj_masks[pick] | pb), cur_w + weights[pick], cur_m | pb)
        dfs(mask ^ pb, cur_w, cur_m)

    dfs(alive, 0, 0)
    return best_w, best_m


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


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
