"""Detection of subdivided claws and bicliques.

The subdivided-claw search is exact backtracking over centers and three
disjoint induced legs; at the sizes this toolkit targets the brute search
doubles as its own validator.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import InputError
from .graph import WeightedGraph


class SubdividedClawWitness(NamedTuple):
    """An induced S_{a,b,c}: a degree-3 center and three pendant paths.

    Each leg is the vertex sequence from the center outwards, excluding
    the center itself; leg i has length len(legs[i]) in edges.
    """

    center: object
    legs: tuple

    @property
    def vertex_set(self) -> frozenset:
        out = {self.center}
        for leg in self.legs:
            out.update(leg)
        return frozenset(out)

    def leg_lengths(self) -> tuple:
        return tuple(len(leg) for leg in self.legs)


def witness_violations(G: WeightedGraph, w: SubdividedClawWitness) -> list:
    """Check that the witness vertex set induces exactly S_{a,b,c} in G."""
    report = []
    verts = [w.center] + [v for leg in w.legs for v in leg]
    if len(set(verts)) != len(verts):
        return ["witness vertices are not distinct"]
    if len(w.legs) != 3 or any(len(leg) == 0 for leg in w.legs):
        return ["witness must have three nonempty legs"]
    try:
        ids = {v: G.id_of(v) for v in verts}
    except InputError as exc:
        return [str(exc)]
    adjacent = lambda a, b: ids[b] in G.adj[ids[a]]
    expected = set()
    for leg in w.legs:
        chain = [w.center] + list(leg)
        for a, b in zip(chain, chain[1:]):
            expected.add(frozenset((a, b)))
    for a, b in combinations(verts, 2):
        has = adjacent(a, b)
        want = frozenset((a, b)) in expected
        if has and not want:
            report.append(f"chord {a!r}-{b!r} breaks inducedness")
        if want and not has:
            report.append(f"missing path edge {a!r}-{b!r}")
    return report


def find_induced_sttt(G: WeightedGraph, t: int):
    """Find an induced S_{t,t,t}; returns a witness or None.

    Exhaustive backtracking: pick a center, three pairwise non-adjacent
    neighbors in increasing id order (symmetry pruning), then grow the
    three legs one vertex at a time.  A new leg vertex must be adjacent
    to its predecessor and to nothing else already chosen.
    """
    if t < 1:
        raise InputError("t must be a positive integer")
    n = G.n
    adjm = G.adj_masks
    for c in range(n):
        nbrs = sorted(G.adj[c])
        if len(nbrs) < 3:
            continue
        cbit = 1 << c
        for trio in combinations(nbrs, 3):
            b0, b1, b2 = trio
            if (adjm[b0] >> b1) & 1 or (adjm[b0] >> b2) & 1 or (adjm[b1] >> b2) & 1:
                continue
            legs = [[b0], [b1], [b2]]
            chosen = cbit | (1 << b0) | (1 << b1) | (1 << b2)

            def grow(li, chosen):
                if li == 3:
                    return True
                leg = legs[li]
                if len(leg) == t:
                    return grow(li + 1, chosen)
                tip = leg[-1]
                tipbit = 1 << tip
                for u in sorted(G.adj[tip]):
                    ubit = 1 << u
                    if chosen & ubit:
                        continue
                    if adjm[u] & chosen != tipbit:
                        continue
                    leg.append(u)
                    if grow(li, chosen | ubit):
                        return True
                    leg.pop()
                return False

            if grow(0, chosen):
                return SubdividedClawWitness(
                    center=G.label_of(c),
                    legs=tuple(tuple(G.label_of(v) for v in leg) for leg in legs),
                )
    return None


def contains_biclique_subgraph(G: WeightedGraph, t: int) -> bool:
    """True iff K_{t,t} occurs as a (not necessarily induced) subgraph."""
    if t < 1:
        raise InputError("t must be a positive integer")
    adjm = G.adj_masks
    candidates = [v for v in range(G.n) if G.degree(v) >= t]
    for side in combinations(candidates, t):
        common = -1
        smask = 0
        for v in side:
            common &= adjm[v]
            smask |= 1 << v
        common &= ~smask
        if common.bit_count() >= t:
            return True
    return False
