"""Seeded inputs of the four workloads, built without the program.

Each workload has a fixed list of instance shapes.  The graph structure
of an instance comes from a fixed structure seed listed here, so the
amount of work per operation is nearly the same for every benchmark
seed; the benchmark seed draws the weights.  This keeps the per-run
medians comparable across seeds, while every seed still gives inputs
whose answers must be checked afresh.

An instance is a plain dict that can be sent to the worker as JSON:

- ``kind``: ``"linegraph"`` (a root graph whose line graph is the input)
  or ``"graph"`` (a vertex-weighted graph);
- ``n`` and ``edges``: vertices ``1..n`` and 1-based edge pairs;
- ``weights``: vertex weights (``graph``) or edge weights parallel to
  ``edges`` (``linegraph``);
- ``terminals``: indices into ``edges`` (``combine_linegraph`` only);
- ``text``: the graph in the program's file format (the root graph with
  unit weights for ``linegraph``).
"""

from __future__ import annotations

import random

# Solve times swing by up to half from minute to minute on a shared
# host, so a run repeats short operations many times.  Within a workload
# the instances take similar times (within about 15 % of each other,
# timed interleaved), so that the median of a run draws on all of them
# rather than jumping between two instances of different size.  Times
# are from a 2-vCPU x86 container.

# degree_linegraph, (edges in the root graph, structure seed): 0.47-0.60 s.
LINEGRAPH_SHAPES = [(36, 2), (38, 1), (40, 8), (41, 7), (44, 4)]

# degree_cycle: 0.45-0.49 s per solve.
CYCLE_SIZES = [520, 540, 560, 580, 600]

# biclique_caterpillar, (family, vertices, hubs, structure seed): 0.48-0.58 s.
CATERPILLAR_SHAPES = [
    ("hub", 80, 3, 0),
    ("hub", 100, 3, 1),
    ("hub", 120, 3, 3),
    ("windmill", 80, 3, 3),
    ("windmill", 120, 3, 1),
]

# combine_linegraph, (root edges, terminal edges, structure seed): 0.63-0.83 s.
COMBINE_SHAPES = [(30, 8, 3), (32, 8, 0), (32, 8, 1), (34, 9, 3), (36, 9, 0)]

WORKLOADS = ("degree_linegraph", "degree_cycle", "biclique_caterpillar",
             "combine_linegraph")


def graph_text(n, weights, edges, comment):
    """The program's line-oriented graph format, vertices 1..n."""
    lines = [f"c {comment}", f"p {n} {len(edges)}"]
    lines += [f"v {i} {w}" for i, w in enumerate(weights, start=1)]
    lines += [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def random_root_graph(rng, m):
    """m distinct random edges on 0.8 m + 2 vertices (1-based, sorted)."""
    n = max(3, int(m * 0.8) + 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def hub_caterpillar(rng, n, hubs, hub_legs=6):
    """A tree: a spine of n/3 vertices, `hubs` spine vertices with
    `hub_legs` pendant legs each, the remaining vertices as pendant legs
    on random spine vertices.  Legs have one edge, so no induced
    S_{2,2,2}; a tree has no K_{2,2} subgraph."""
    spine = max(6, n // 3)
    edges = [(i, i + 1) for i in range(1, spine)]
    nxt = spine + 1
    for h in sorted(rng.sample(range(2, spine), min(hubs, spine - 2))):
        for _ in range(hub_legs):
            if nxt > n:
                break
            edges.append((h, nxt))
            nxt += 1
    while nxt <= n:
        edges.append((rng.randint(1, spine), nxt))
        nxt += 1
    return sorted(edges)


def windmill_caterpillar(rng, n, hubs):
    """A spine of n/4 vertices; `hubs` spine vertices carry two or three
    triangles glued at the hub, the rest are pendant legs.  Every block is
    an edge or a triangle; two vertices share at most one neighbour, so
    no K_{2,2} subgraph."""
    spine = max(6, n // 4)
    edges = [(i, i + 1) for i in range(1, spine)]
    nxt = spine + 1
    for h in sorted(rng.sample(range(2, spine), min(hubs, spine - 2))):
        for _ in range(rng.randint(2, 3)):
            if nxt + 1 > n:
                break
            edges += [(h, nxt), (h, nxt + 1), (nxt, nxt + 1)]
            nxt += 2
    while nxt <= n:
        edges.append((rng.randint(1, spine), nxt))
        nxt += 1
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def _weights(workload, index, seed, count, top):
    rng = random.Random(f"perfbench-weights:{workload}:{index}:{seed}")
    return [rng.randint(1, top) for _ in range(count)]


def _linegraph_instance(name, n, edges, weights):
    return {"kind": "linegraph", "name": name, "n": n, "edges": edges,
            "weights": weights,
            "text": graph_text(n, [1] * n, edges, f"root graph of {name}")}


def _graph_instance(name, n, edges, weights):
    return {"kind": "graph", "name": name, "n": n, "edges": edges,
            "weights": weights, "text": graph_text(n, weights, edges, name)}


def build_corpus(workload, seed):
    """The instances of one workload, in the order the run repeats them."""
    out = []
    if workload == "degree_linegraph":
        for i, (m, s) in enumerate(LINEGRAPH_SHAPES):
            n, edges = random_root_graph(random.Random(f"perfbench-root:{m}:{s}"), m)
            out.append(_linegraph_instance(f"linegraph-m{m}-s{s}", n, edges,
                                           _weights(workload, i, seed, m, 20)))
    elif workload == "degree_cycle":
        for i, n in enumerate(CYCLE_SIZES):
            edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
            out.append(_graph_instance(f"cycle-{n}", n, edges,
                                       _weights(workload, i, seed, n, 100)))
    elif workload == "biclique_caterpillar":
        for i, (family, n, hubs, s) in enumerate(CATERPILLAR_SHAPES):
            rng = random.Random(f"perfbench-caterpillar:{family}:{n}:{hubs}:{s}")
            make = hub_caterpillar if family == "hub" else windmill_caterpillar
            out.append(_graph_instance(f"{family}-{n}-s{s}", n, make(rng, n, hubs),
                                       _weights(workload, i, seed, n, 100)))
    elif workload == "combine_linegraph":
        for i, (m, k, s) in enumerate(COMBINE_SHAPES):
            rng = random.Random(f"perfbench-combine:{m}:{k}:{s}")
            n, edges = random_root_graph(rng, m)
            inst = _linegraph_instance(f"combine-m{m}-t{k}-s{s}", n, edges,
                                       _weights(workload, i, seed, m, 20))
            inst["terminals"] = sorted(rng.sample(range(m), k))
            out.append(inst)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
