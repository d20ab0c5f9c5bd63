"""Instance generators.

All randomness is driven by a caller-supplied seed; identical arguments
produce identical graphs.  Random instances are assembled from structural
families that cannot contain the forbidden subdivided claw (degree-2
unions, short-leg caterpillars, vertex-glued triangle chains), then
densified with random extra edges that are kept only when the freeness
check still passes, and finally repaired by vertex isolation if needed.
"""

from __future__ import annotations

import random

from .errors import GenerationError, InputError
from .graph import WeightedGraph
from .patterns import find_induced_sttt


def generate_subdivided_claw(a: int, b: int, c: int) -> WeightedGraph:
    """S_{a,b,c}: a degree-3 center with pendant paths of a, b, c edges,
    unit weights.  Labels: 0 is the center, legs are numbered outwards."""
    if min(a, b, c) < 1:
        raise InputError("leg lengths must be positive")
    labels = [0]
    edges = []
    nxt = 1
    for length in (a, b, c):
        prev = 0
        for _ in range(length):
            labels.append(nxt)
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return WeightedGraph(labels, [1] * len(labels), edges)


def _family_paths_cycles(rng, n, max_degree):
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(2, 9), n - start)
        verts = list(range(start, start + size))
        for a, b in zip(verts, verts[1:]):
            edges.append((a, b))
        if size >= 3 and max_degree >= 2 and rng.random() < 0.5:
            edges.append((verts[-1], verts[0]))
        start += size
    return edges


def _family_caterpillar(rng, n, max_degree):
    # Spine plus single-edge legs; legs of length one cannot complete a
    # third long branch, so any t >= 2 freeness holds by construction.
    spine = max(2, n // 2 + rng.randint(-2, 2))
    spine = min(spine, n)
    edges = [(i, i + 1) for i in range(spine - 1)]
    deg = [2] * spine
    deg[0] = deg[spine - 1] = 1
    nxt = spine
    hosts = list(range(spine))
    while nxt < n:
        rng.shuffle(hosts)
        placed = False
        for h in hosts:
            if deg[h] < max_degree:
                edges.append((h, nxt))
                deg[h] += 1
                placed = True
                break
        if not placed:
            break
        nxt += 1
    # leftovers become isolated vertices
    return edges


def _family_triangle_chain(rng, n, max_degree):
    # Triangles glued at single vertices; glue points have degree 4.
    edges = []
    nxt = 0
    glue = None
    while nxt + 2 < n:
        a, b, c = nxt, nxt + 1, nxt + 2
        edges += [(a, b), (b, c), (a, c)]
        if glue is not None and rng.random() < 0.8:
            edges.append((glue, a))
        glue = c
        nxt += 3
    return edges


def _base_edges(rng, n, max_degree, t):
    families = [("sparse", None)]
    if max_degree >= 2:
        families.append(("paths_cycles", _family_paths_cycles))
    if t >= 2 and max_degree >= 3:
        families.append(("caterpillar", _family_caterpillar))
    if max_degree >= 4 and n >= 6:
        families.append(("triangle_chain", _family_triangle_chain))
    name, fam = rng.choice(families)
    if fam is not None:
        return fam(rng, n, max_degree)
    if n < 2:
        return []
    target = min(rng.randint(max(0, n // 2), int(1.2 * n)), n * max_degree // 2)
    degree = [0] * n
    edges = set()
    attempts = 0
    while len(edges) < target and attempts < 20 * target + 50:
        attempts += 1
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if key in edges or degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        edges.add(key)
        degree[u] += 1
        degree[v] += 1
    return sorted(edges)


def generate_random_instance(n: int, max_degree: int, t: int, seed) -> WeightedGraph:
    """Random graph with maximum degree <= max_degree and no induced
    subdivided claw with three legs of t edges, verified by the exact
    detector.  Weights are uniform in [1, 100]; deterministic per seed.

    Pipeline: sample a structured base, densify with random edges kept
    only while the freeness check passes, then repair any residual
    witness by isolating one of its vertices (isolation never creates
    induced subgraphs, so the loop converges).
    """
    if n < 0:
        raise InputError("n must be non-negative")
    if max_degree < 0:
        raise InputError("max_degree must be non-negative")
    rng = random.Random(f"instance:{n}:{max_degree}:{t}:{seed}")
    if n == 0:
        return WeightedGraph([], [], [])
    labels = list(range(n))
    weights = [rng.randint(1, 100) for _ in range(n)]
    edges = {(min(u, v), max(u, v)) for u, v in _base_edges(rng, n, max_degree, t)}
    G = WeightedGraph(labels, weights, sorted(edges))

    repairs = 0
    while repairs <= 4 * n + 16:
        witness = find_induced_sttt(G, t)
        if witness is None:
            break
        drop = rng.choice(sorted(witness.vertex_set))
        edges = {e for e in edges if drop not in e}
        G = WeightedGraph(labels, weights, sorted(edges))
        repairs += 1
    else:
        raise GenerationError("repair budget exhausted without a claw-free instance")

    # Densify: keep a random extra edge only if the instance stays free.
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for _ in range(max(4, n // 2)):
        u, v = rng.sample(labels, 2) if n >= 2 else (0, 0)
        key = (min(u, v), max(u, v))
        if u == v or key in edges:
            continue
        if degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        attempt = WeightedGraph(labels, weights, sorted(edges | {key}))
        if find_induced_sttt(attempt, t) is None:
            edges.add(key)
            degree[u] += 1
            degree[v] += 1
            G = attempt
    return G
