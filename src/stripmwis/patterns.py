"""Detection of subdivided claws and bicliques.

The subdivided-claw search is exact backtracking over centers and three
disjoint induced legs, which first drops the center's neighbors that
cannot start a leg on their own; it returns the witness of the plain
search over all trios.  At the sizes this toolkit targets the search
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

    Backtracking: pick a center, three pairwise non-adjacent neighbors
    in increasing id order (symmetry pruning), then grow the three legs
    one vertex at a time.  A new leg vertex must be adjacent to its
    predecessor and to nothing else already chosen.  That test only gets
    stricter as more vertices are chosen, so a neighbor of the center
    that cannot start a leg of t vertices on its own cannot start one in
    any trio; such neighbors are dropped before the trios are formed,
    at centers that have an independent trio of neighbors at all.  The
    surviving trios keep their order, so the witness is the one the
    plain search over all trios finds.
    """
    if t < 1:
        raise InputError("t must be a positive integer")
    adjm = G.adj_masks
    nbrs = [sorted(a) for a in G.adj]

    def grow(legs, li, chosen):
        """Extend legs[li:] in turn to t vertices each."""
        if li == len(legs):
            return True
        leg = legs[li]
        if len(leg) == t:
            return grow(legs, li + 1, chosen)
        tip = leg[-1]
        tipbit = 1 << tip
        for u in nbrs[tip]:
            ubit = 1 << u
            if chosen & ubit or adjm[u] & chosen != tipbit:
                continue
            leg.append(u)
            if grow(legs, li, chosen | ubit):
                return True
            leg.pop()
        return False

    def independent(trio):
        b0, b1, b2 = trio
        return not ((adjm[b0] | adjm[b1]) >> b2 & 1 or adjm[b0] >> b1 & 1)

    for c in range(G.n):
        # Checking every neighbor for a leg costs more than this scan
        # where no neighbor trio is independent, as at every center of a
        # (claw-free) line graph.
        if len(nbrs[c]) < 3 or not any(map(independent, combinations(nbrs[c], 3))):
            continue
        cbit = 1 << c
        starts = [b for b in nbrs[c] if grow([[b]], 0, cbit | 1 << b)]
        for trio in filter(independent, combinations(starts, 3)):
            legs = [[b] for b in trio]
            if grow(legs, 0, cbit | 1 << trio[0] | 1 << trio[1] | 1 << trio[2]):
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
