"""Balanced decomposition step: a path family plus a rigid extended
strip decomposition.

The contract: given (G, U, t) with G free of an induced S_{t,t,t},
return a family P of at most ceil(11*log2(n) + 6) induced paths, each on
at most t + 2 vertices, together with a rigid extended strip
decomposition of G - N[union(P)] in which every particle holds at most
ceil(|U|/2) vertices of U.  The claw search is not part of this step:
the solvers only decompose induced subgraphs of their input, so they
search the input once at the root.

The reference implementation searches, by iterative deepening over the
size of X = union(P) and lexicographically within a size, for the first
vertex set whose closed-neighborhood removal splits the graph into
components that are each light in U, and returns X as |X| one-vertex
paths; the component decomposition (one isolated pattern vertex per
component) is then always rigid and valid.  A candidate that fails
leaves a connected heavy set behind, and every later candidate whose
removed set misses that set fails as well, so it is skipped without a
component search.  The heavy set grows from the highest alive id below
the candidate's last vertex (the highest alive id if there is none): lex
order replaces that vertex by higher ones, so the next candidates miss
such a set longest.  The search gives up with a CapacityError beyond
MAX_UNION_SIZE vertices in X or MAX_CANDIDATES candidate sets, skipped
ones included.  Any implementation is accepted as long as its outcomes
pass `validate_outcome`, which the solvers run on every outcome.
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import NamedTuple

from .errors import CapacityError, InputError, ParseError
from .esd import (ExtendedStripDecomposition, components_esd, esd_from_records,
                  esd_to_text, particles, validate_esd)
from .fileio import fields, records
from .graph import WeightedGraph

#: Largest union X = union(P) the reference search tries.
MAX_UNION_SIZE = 4
#: Candidate sets X the reference search may examine in one call.
MAX_CANDIDATES = 400_000


def path_count_cap(n: int) -> int:
    """Maximum number of paths the contract allows for an n-vertex input."""
    return math.ceil(11 * math.log2(max(n, 1)) + 6)


class DecomposeOutcome(NamedTuple):
    """A path family and a strip decomposition of what its removal leaves."""

    paths: tuple
    esd: ExtendedStripDecomposition

    def removed_set(self) -> frozenset:
        out = set()
        for p in self.paths:
            out.update(p)
        return frozenset(out)


def validate_outcome(G: WeightedGraph, U, t: int, outcome: DecomposeOutcome) -> list:
    """Re-check every contract condition; empty report iff the outcome holds."""
    report = []
    if len(outcome.paths) > path_count_cap(G.n):
        report.append(f"{len(outcome.paths)} paths exceed the cap {path_count_cap(G.n)}")
    for p in outcome.paths:
        if not p or len(p) > t + 2:
            report.append(f"path {p} has {len(p)} vertices, limit {t + 2}")
            continue
        for i, v in enumerate(p):
            for j in range(i + 1, len(p)):
                adjacent = G.has_edge_labels(v, p[j])
                if (j == i + 1) != adjacent:
                    report.append(f"path {p} is not an induced path")
                    break
    removed = G.closed_neighborhood(outcome.removed_set())
    rest = G.subgraph(G.label_set - removed)
    try:
        report.extend(validate_esd(rest, outcome.esd, require_rigid=True))
    except InputError as exc:
        report.append(f"decomposition references removed vertices: {exc}")
    if not report:
        uset = frozenset(U)
        cap = math.ceil(len(uset) / 2)
        for p in particles(outcome.esd):
            hit = len(p.members & uset)
            if hit > cap:
                report.append(
                    f"particle {p.kind}{p.anchor} holds {hit} of {len(uset)} U-vertices, cap {cap}")
    return report


def decompose(G: WeightedGraph, U) -> DecomposeOutcome:
    """Reference decomposition search.

    Enumerates candidate sets X in order of increasing size (then
    lexicographic by vertex id) and accepts the first whose
    closed-neighborhood removal leaves only U-balanced components.  X is
    returned as |X| one-vertex paths, which the contract allows for any t
    since |X| <= MAX_UNION_SIZE <= path_count_cap(n).
    """
    uset = frozenset(U)
    if not uset <= G.label_set:
        raise InputError("U must be a subset of the vertices")
    n = G.n
    adjm = G.adj_masks
    full = (1 << n) - 1
    umask = G.mask_of_labels(uset)
    cap = math.ceil(len(uset) / 2)

    # A connected set holding more than cap vertices of U that the last
    # searched candidate left alive: a candidate whose removed set misses
    # it leaves it connected, so that candidate fails unsearched.
    heavy = 0
    examined = 0
    for size in range(0, min(MAX_UNION_SIZE, n) + 1):
        for combo in combinations(range(n), size):
            examined += 1
            if examined > MAX_CANDIDATES:
                raise CapacityError("decompose: no decomposition within "
                                    f"MAX_CANDIDATES={MAX_CANDIDATES} candidate sets")
            removed = 0
            for v in combo:
                removed |= adjm[v] | 1 << v
            if heavy and not heavy & removed:
                continue
            alive = full & ~removed
            below = alive & (1 << combo[-1]) - 1 if combo else 0
            heavy, comps = light_components(adjm, alive, umask, cap, below)
            if not heavy:
                esd = components_esd([G.labels_of_mask(c) for c in comps])
                return DecomposeOutcome(paths=tuple((G.label_of(v),) for v in combo),
                                        esd=esd)
    raise CapacityError(
        f"decompose: no decomposition with |X| <= MAX_UNION_SIZE={MAX_UNION_SIZE}")


def light_components(adj_masks, alive: int, umask: int, cap: int, first: int):
    """(0, the components of `alive` by lowest id) if each holds at most
    `cap` vertices of `umask`, else (heavy, None), heavy a connected part
    of a component that holds more.  Components grow breadth first, the
    first from the highest id in `first` (a part of `alive`) unless it is
    empty, every other one from the highest remaining id.  The decomposer
    passes the alive ids below the candidate's last vertex: lex order
    replaces that vertex by higher ones, so a heavy set grown just below
    it stays clear of the next candidates longest."""
    comps = []
    rest = alive
    while rest:
        comp = frontier = 1 << (first or rest).bit_length() - 1
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= adj_masks[b.bit_length() - 1]
                frontier ^= b
            frontier = nxt & rest & ~comp
            comp |= frontier
            if (comp & umask).bit_count() > cap:
                return comp, None
        comps.append(comp)
        rest &= ~comp
        first = 0
    comps.sort(key=lambda c: c & -c)
    return 0, comps


def outcome_to_text(outcome: DecomposeOutcome) -> str:
    lines = [f"paths {len(outcome.paths)}"]
    for p in outcome.paths:
        lines.append("path " + " ".join(str(v) for v in p))
    return "\n".join(lines) + "\n" + esd_to_text(outcome.esd)


def outcome_from_text(text: str) -> DecomposeOutcome:
    """Parse the outcome format: 'paths <count>' first, then one line
    'path <labels>' per path, then the decomposition in the interchange
    format of `esd_from_records`."""
    rows = records(text)
    lineno, tokens = next(rows, (None, []))
    count, = fields(lineno, tokens, "paths <count>")
    if count < 0:
        raise ParseError("negative path count", lineno)
    paths = tuple(tuple(fields(lineno, tokens, "path ...")[0])
                  for lineno, tokens in islice(rows, count))
    return DecomposeOutcome(paths=paths, esd=esd_from_records(rows))
