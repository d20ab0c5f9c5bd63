"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations

from stripmwis.decompose import DecomposeOutcome
from stripmwis.errors import CapacityError
from stripmwis.esd import ExtendedStripDecomposition, components_esd, validate_esd
from stripmwis.graph import WeightedGraph, components_masks, line_graph


def naive_find_sttt(G: WeightedGraph, t: int) -> bool:
    """Subset-enumeration oracle: does G contain an induced S_{t,t,t}?

    Checks every (3t+1)-subset directly against the degree/distance
    profile of the subdivided claw; independent of the backtracking
    searcher."""
    need = 3 * t + 1
    if G.n < need:
        return False
    ids = range(G.n)
    for subset in combinations(ids, need):
        sub = G.subgraph([G.label_of(i) for i in subset])
        if _is_sttt(sub, t):
            return True
    return False


def _is_sttt(sub: WeightedGraph, t: int) -> bool:
    degs = sorted(sub.degree(i) for i in range(sub.n))
    if t == 1:
        if degs != [1, 1, 1, 3]:
            return False
    elif degs != [1, 1, 1] + [2] * (3 * (t - 1)) + [3]:
        return False
    center = next(i for i in range(sub.n) if sub.degree(i) == 3)
    # all three leaves must sit at distance exactly t from the center
    dist = {center: 0}
    frontier = [center]
    while frontier:
        nxt = []
        for v in frontier:
            for u in sub.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    if len(dist) != sub.n:
        return False
    leaves = [i for i in range(sub.n) if sub.degree(i) == 1]
    return all(dist[v] == t for v in leaves)


def random_graph(rng: random.Random, n: int, p: float, wmax: int = 20) -> WeightedGraph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return WeightedGraph(range(n), [rng.randint(0, wmax) for _ in range(n)], edges)


def random_esd_instance(rng: random.Random, max_n: int = 14):
    """A random valid decomposition together with a host graph built to
    satisfy it: classes are assigned first, then all mandatory
    completeness edges plus a random selection of sanctioned edges."""
    nh = rng.randint(1, 4)
    hedges = sorted((x, y) for x, y in combinations(range(nh), 2) if rng.random() < 0.55)
    es = set(hedges)
    tris = [(x, y, z) for x, y in hedges for z in range(y + 1, nh)
            if (x, z) in es and (y, z) in es]
    n = rng.randint(0, max_n)
    labels = list(range(n))
    vsets = {x: set() for x in range(nh)}
    esets = {e: (set(), set(), set()) for e in hedges}
    tsets = {tr: set() for tr in tris}
    slots = ([("v", x) for x in range(nh)] + [("e", e) for e in hedges]
             + [("t", tr) for tr in tris])
    for v in labels:
        kind, anchor = rng.choice(slots)
        if kind == "v":
            vsets[anchor].add(v)
        elif kind == "t":
            tsets[anchor].add(v)
        else:
            full, ea, eb = esets[anchor]
            full.add(v)
            r = rng.random()
            if r < 0.3:
                ea.add(v)
            elif r < 0.6:
                eb.add(v)
            elif r < 0.75:
                ea.add(v)
                eb.add(v)
    D = ExtendedStripDecomposition(range(nh), hedges, vsets, esets, tsets)

    edges = set()

    def add(u, v, p):
        if u != v and rng.random() < p:
            edges.add((min(u, v), max(u, v)))

    for x in range(nh):
        for y, z in combinations(D.pattern_neighbors(x), 2):
            for u in D.eta_end(x, y, x):
                for v in D.eta_end(x, z, x):
                    add(u, v, 1.0)
    for _, _, mem in D.all_classes():
        for u, v in combinations(sorted(mem), 2):
            add(u, v, 0.35)
    for x, y in hedges:
        for end in (x, y):
            for u in D.eta_end(x, y, end):
                for v in D.eta_vertex(end):
                    add(u, v, 0.45)
    for tr in tris:
        x, y, z = tr
        for a, b in ((x, y), (x, z), (y, z)):
            both = D.eta_end(a, b, a) & D.eta_end(a, b, b)
            for u in tsets[tr]:
                for v in both:
                    add(u, v, 0.5)
    G = WeightedGraph(labels, [rng.randint(0, 20) for _ in labels], sorted(edges))
    assert not validate_esd(G, D), "generator produced an invalid decomposition"
    return G, D


def line_graph_esd(base: WeightedGraph, ew):
    """The line graph L of `base` (vertex weights from `ew`, keyed by
    frozensets of endpoint labels) with its canonical strip decomposition:
    the pattern is `base`, and each vertex of L sits alone in its edge
    class and in both end-sets."""
    L = line_graph(base, ew)
    esets = {}
    for u, v in base.edges_ids():
        lab = tuple(sorted((base.labels[u], base.labels[v]), key=repr))
        esets[(u, v)] = ({lab}, {lab}, {lab})
    D = ExtendedStripDecomposition(range(base.n), base.edges_ids(),
                                   {x: set() for x in range(base.n)}, esets)
    return L, D


def hub_caterpillar(rng: random.Random, n: int, hubs: int = 3,
                    hub_legs: int = 6) -> WeightedGraph:
    """Caterpillar with a few high-degree leg bundles; tree, so biclique
    free, and all legs have length one, so free of S_{2,2,2}."""
    spine = max(6, n // 3)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for h in sorted(rng.sample(range(1, spine - 1), min(hubs, spine - 2))):
        for _ in range(hub_legs):
            if nxt >= n:
                break
            edges.append((h, nxt))
            nxt += 1
    hosts = list(range(spine))
    while nxt < n:
        edges.append((rng.choice(hosts), nxt))
        nxt += 1
    return WeightedGraph(range(n), [rng.randint(1, 100) for _ in range(n)], edges)


def windmill_caterpillar(rng: random.Random, n: int, hubs: int = 3) -> WeightedGraph:
    """Spine with windmill hubs (triangles glued at the hub) plus pendant
    legs.  Triangle blades block every third long leg, so no induced
    S_{2,2,2}; any two vertices share at most one common neighbor, so no
    K_{2,2} subgraph."""
    spine = max(6, n // 4)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for h in sorted(rng.sample(range(1, spine - 1), min(hubs, spine - 2))):
        for _ in range(rng.randint(2, 3)):
            if nxt + 1 >= n:
                break
            edges += [(h, nxt), (h, nxt + 1), (nxt, nxt + 1)]
            nxt += 2
    hosts = list(range(spine))
    while nxt < n:
        edges.append((rng.choice(hosts), nxt))
        nxt += 1
    return WeightedGraph(range(n), [rng.randint(1, 100) for _ in range(n)], edges)


def union_graph(parts) -> WeightedGraph:
    """Disjoint union with relabelled vertices."""
    labels, weights, edges = [], [], []
    offset = 0
    for part in parts:
        remap = {lab: offset + i for i, lab in enumerate(part.labels)}
        labels.extend(remap[lab] for lab in part.labels)
        weights.extend(part.weights)
        for u, v in part.edges_ids():
            edges.append((remap[part.labels[u]], remap[part.labels[v]]))
        offset += part.n
    return WeightedGraph(labels, weights, edges)


def weighted_cycle(rng: random.Random, n: int) -> WeightedGraph:
    return WeightedGraph(range(n), [rng.randint(1, 100) for _ in range(n)],
                         [(i, (i + 1) % n) for i in range(n)])


def cycle_mwis(weights) -> int:
    """MWIS of the cycle 0..n-1 by a path DP with vertex 0 left out or taken."""
    def path(ws):
        skip, take = 0, 0
        for w in ws:
            skip, take = max(skip, take), skip + w
        return max(skip, take)
    return max(path(weights[1:]), weights[0] + path(weights[2:-1]))


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's
    arguments in the returned list and then makes the call."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def reference_decompose(G: WeightedGraph, U) -> DecomposeOutcome:
    """The plain lex scan that `decompose` must agree with: every
    candidate X, by increasing size and then lexicographically, gets a
    full component search of G - N[X]; the first whose components each
    hold at most ceil(|U|/2) vertices of U wins.  The budgets are read
    from the decompose module at call time, so a test may lower them."""
    dmod = sys.modules["stripmwis.decompose"]
    adjm = G.adj_masks
    full = (1 << G.n) - 1
    umask = G.mask_of_labels(U)
    cap = math.ceil(len(frozenset(U)) / 2)
    examined = 0
    for size in range(0, min(dmod.MAX_UNION_SIZE, G.n) + 1):
        for combo in combinations(range(G.n), size):
            examined += 1
            if examined > dmod.MAX_CANDIDATES:
                raise CapacityError("decompose: MAX_CANDIDATES")
            removed = 0
            for v in combo:
                removed |= adjm[v] | 1 << v
            comps = components_masks(adjm, full & ~removed)
            if all((c & umask).bit_count() <= cap for c in comps):
                return DecomposeOutcome(
                    paths=tuple((G.label_of(v),) for v in combo),
                    esd=components_esd([G.labels_of_mask(c) for c in comps]))
    raise CapacityError("decompose: MAX_UNION_SIZE")


def random_root_graph(rng: random.Random, m: int) -> WeightedGraph:
    """m distinct random edges on 0.8 m + 2 vertices labelled 1..n, unit
    weights; the root graphs of the benchmark's line-graph workloads."""
    n = max(3, int(m * 0.8) + 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return WeightedGraph(range(1, n + 1), [1] * n, sorted(edges))
