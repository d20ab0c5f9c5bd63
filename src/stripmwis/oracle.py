"""Independent ground-truth solvers.

Everything here stays deliberately ignorant of decompositions: exact MWIS
by branch and bound, and entrywise profile verification against the
exhaustive border solver.
"""

from __future__ import annotations

from . import bnb
from .border import MAX_LEAF_VERTICES, BorderProfile, brute_force_border
from .errors import CapacityError, InvariantError
from .graph import WeightedGraph


def mwis_bruteforce(G: WeightedGraph):
    """Exact maximum-weight independent set: (weight, witness label set)."""
    if G.n > MAX_LEAF_VERTICES:
        raise CapacityError(f"oracle: {G.n} vertices exceed "
                            f"MAX_LEAF_VERTICES={MAX_LEAF_VERTICES}")
    w, mask = bnb.max_weight_set(G.adj_masks, G.weights, (1 << G.n) - 1)
    witness = G.labels_of_mask(mask)
    if not G.is_independent(witness) or G.total_weight(witness) != w:
        raise InvariantError("oracle witness failed re-verification")
    return w, witness


def verify_solution(G: WeightedGraph, T, profile: BorderProfile) -> list:
    """Entrywise comparison of a profile against the exhaustive oracle."""
    want = brute_force_border(G, T)
    report = []
    if set(profile.terminals) != set(want.terminals):
        return [f"terminal sets differ: {profile.terminals} vs {want.terminals}"]
    for mask, val in want.cells():
        got = profile.table[profile.mask_of(want.labels_of(mask))]
        if got != val:
            report.append(f"subset {sorted(map(repr, want.labels_of(mask)))}: "
                          f"expected {val}, got {got}")
    return report
