"""Tree decompositions with small adhesions and degree-bounded torsos.

The torso of a bag is G[bag] plus a clique on each adhesion.  The
validator, the builder, its split test and the biclique solver's sink
bag all build such graphs by `completion` (an induced subgraph plus a
clique on each given vertex set) and read their vertices of degree
above 2k(k-1) by `high_degree_vertices`.

The builder is a validator-gated best effort: it splits bags along
minimum vertex separators of the torso between high-degree vertices
until every torso has at most k vertices of degree above 2k(k-1), or
fails with diagnostics after MAX_SPLITS splits.  networkx is loaded for
the minimum vertex cut of a split only.  Every returned decomposition
passes both `validate_tree_decomposition` and `check_weissauer`.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapacityError, InputError, InvariantError, ParseError
from .fileio import fields, records
from .graph import WeightedGraph

#: Bag splits the builder may make in one call.
MAX_SPLITS = 400


class TreeDecomposition:
    def __init__(self, bags, tree_edges):
        """`bags` maps node id -> label set; `tree_edges` connect node ids."""
        self.bags = {nid: frozenset(b) for nid, b in bags.items()}
        self.nodes = tuple(sorted(self.bags))
        self.tree_edges = tuple(sorted({(min(s, t), max(s, t)) for s, t in tree_edges}))
        #: The decomposition tree, a graph on the node ids; it rejects an
        #: edge at an unknown node and a loop.
        self.tree = WeightedGraph(self.nodes, [0] * len(self.nodes), self.tree_edges)
        if self.nodes and (len(self.tree_edges) != len(self.nodes) - 1
                           or len(self.tree.components()) > 1):
            raise InputError("decomposition tree must be connected with n-1 edges")

    def adhesion(self, s, t) -> frozenset:
        if (min(s, t), max(s, t)) not in self.tree_edges:
            raise InputError(f"({s}, {t}) is not a tree edge")
        return self.bags[s] & self.bags[t]

    def tree_neighbors(self, node):
        return sorted(self.tree.neighbors_labels(node))


def tree_sides(td: TreeDecomposition, s, t):
    """Correct two-sided split of the tree at edge st."""
    st = (min(s, t), max(s, t))
    rest = WeightedGraph(td.nodes, td.tree.weights, [e for e in td.tree_edges if e != st])
    side_s = next(c for c in rest.components() if s in c)
    return set(side_s), set(td.nodes) - side_s


def validate_tree_decomposition(G: WeightedGraph, td: TreeDecomposition) -> list:
    """Vertex and edge coverage and connected per-vertex subtrees.

    These imply that every adhesion separates.  Take an edge uv with u
    only in bags on the s side of tree edge st and v only in bags on the
    t side.  Some bag holds both, say on the s side; then v has bags on
    both sides, so by connectivity it is in B_s and B_t, that is, in the
    adhesion, and not only on the t side."""
    report = []
    # The nodes whose bags hold v induce a forest in the tree: v is in a
    # bag, and its bags are connected, iff there is one node more than
    # there are edges.
    forest = dict.fromkeys(G.labels, 0)
    for b in td.bags.values():
        for v in b:
            if v in forest:
                forest[v] += 1
            else:
                report.append(f"bag vertex {v!r} is not in the graph")
    if report:
        return report
    for s, t in td.tree_edges:
        for v in td.bags[s] & td.bags[t]:
            forest[v] -= 1
    for v, count in forest.items():
        if count == 0:
            report.append(f"vertex {v!r} is in no bag")
        elif count > 1:
            report.append(f"bags holding {v!r} are not connected in the tree")
    for u, v in G.edges_ids():
        lu, lv = G.label_of(u), G.label_of(v)
        if not any(lu in b and lv in b for b in td.bags.values()):
            report.append(f"edge {lu!r}-{lv!r} is covered by no bag")
    return report


def completion(G: WeightedGraph, labels, cliques) -> WeightedGraph:
    """G[labels] plus a clique on each vertex set of `cliques`."""
    H = G.subgraph(labels)
    extra = [pair for sigma in cliques for pair in combinations(sorted(sigma, key=repr), 2)]
    if not extra:
        return H
    es = [(H.labels[u], H.labels[v]) for u, v in H.edges_ids()]
    return WeightedGraph(H.labels, H.weights, es + extra)


def torso(G: WeightedGraph, td: TreeDecomposition, node) -> WeightedGraph:
    """G[bag] plus a clique on each incident adhesion."""
    return completion(G, td.bags[node],
                      (td.adhesion(node, nb) for nb in td.tree_neighbors(node)))


def high_degree_threshold(k: int) -> int:
    return 2 * k * (k - 1)


def high_degree_vertices(H: WeightedGraph, k: int) -> list:
    """The vertices of H of degree above 2k(k-1), sorted by repr."""
    thr = high_degree_threshold(k)
    return sorted((v for i, v in enumerate(H.labels) if H.degree(i) > thr), key=repr)


def check_weissauer(G: WeightedGraph, td: TreeDecomposition, k: int) -> list:
    """Adhesions below k and at most k high-degree vertices per torso."""
    report = []
    for s, t in td.tree_edges:
        sigma = td.adhesion(s, t)
        if len(sigma) >= k:
            report.append(f"adhesion of ({s}, {t}) has size {len(sigma)} >= {k}")
    thr = high_degree_threshold(k)
    for node in td.nodes:
        high = high_degree_vertices(torso(G, td, node), k)
        if len(high) > k:
            report.append(
                f"torso of node {node} has {len(high)} vertices of degree > {thr}")
    return report


def build_weissauer(G: WeightedGraph, k: int) -> TreeDecomposition:
    """Best-effort construction of a decomposition passing check_weissauer.

    Connected components get their own bags first; a bag whose torso has
    more than k high-degree vertices is split along a minimum torso
    separator (below k) between two high-degree vertices, provided the
    split lowers the high-degree count on both sides.
    """
    if k < 2:
        raise InputError("k must be at least 2")

    comps = G.components()
    if not comps:
        comps = [frozenset()]
    bags = {i: set(c) for i, c in enumerate(comps)}
    neighbors = {i: {i - 1, i + 1} & bags.keys() for i in bags}
    next_id = len(bags)
    splits = 0
    worklist = sorted(bags)

    while worklist:
        node = worklist.pop(0)
        H = completion(G, bags[node], (bags[node] & bags[nb] for nb in sorted(neighbors[node])))
        high = high_degree_vertices(H, k)
        if len(high) <= k:
            continue
        if splits >= MAX_SPLITS:
            raise CapacityError(
                f"treedec: MAX_SPLITS={MAX_SPLITS} bag splits made; unresolved bag of "
                f"size {len(bags[node])} with {len(high)} high-degree vertices")
        split = _find_split(H, high, k, bags, neighbors, node)
        if split is None:
            raise CapacityError(
                f"treedec: no separator below k={k} reduces the high-degree count "
                f"of a bag of size {len(bags[node])} with {len(high)} high-degree vertices")
        splits += 1
        w1, w2, side1_nbrs, side2_nbrs = split
        other = next_id
        next_id += 1
        bags[other] = w2
        bags[node] = w1
        neighbors[other] = set(side2_nbrs) | {node}
        for nb in side2_nbrs:
            neighbors[nb].discard(node)
            neighbors[nb].add(other)
        neighbors[node] = set(side1_nbrs) | {other}
        worklist.extend([node, other])

    td = TreeDecomposition(bags, {(a, b) for a in neighbors for b in neighbors[a] if a < b})
    problems = validate_tree_decomposition(G, td) + check_weissauer(G, td, k)
    if problems:
        raise InvariantError("builder produced an invalid decomposition: "
                             + "; ".join(problems))
    return td


def _find_split(H, high, k, bags, neighbors, node):
    """First separator (deterministic order) that splits the torso H of
    `node` and lowers the high-degree count on both sides."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(H.labels, key=repr))
    g.add_edges_from((H.labels[u], H.labels[v]) for u, v in H.edges_ids())
    for u, v in combinations(high, 2):
        if H.has_edge_labels(u, v):
            continue
        cut = nx.minimum_node_cut(g, u, v)
        if len(cut) >= k:
            continue
        comp_u = next(c for c in H.subgraph(H.label_set - cut).components() if u in c)
        w1 = comp_u | cut
        w2 = H.label_set - comp_u
        side1_nbrs, side2_nbrs = [], []
        ok = True
        for nb in sorted(neighbors[node]):
            sigma = bags[node] & bags[nb]
            if sigma <= w1:
                side1_nbrs.append(nb)
            elif sigma <= w2:
                side2_nbrs.append(nb)
            else:
                ok = False
                break
        if ok and all(len(high_degree_vertices(completion(H, w, [cut]), k)) < len(high)
                      for w in (w1, w2)):
            return w1, w2, side1_nbrs, side2_nbrs
    return None


# -- text format ---------------------------------------------------------------
# `check --td` reads it; the writer is a test helper (`tests/helpers.py`).

def td_from_text(text: str) -> TreeDecomposition:
    """Parse the text format: a header 't <bags>', one line 'b <node> :
    <labels>' per bag and one line 'te <s> <t>' per tree edge, each
    at most once."""
    bags = {}
    edges = set()
    count = None
    for lineno, tokens in records(text):
        kind = tokens[0]
        if kind == "t":
            if count is not None:
                raise ParseError("duplicate header", lineno)
            count, = fields(lineno, tokens, "t <bags>")
        elif kind == "b":
            node, bag = fields(lineno, tokens, "b <node> : ...")
            if node in bags:
                raise ParseError(f"duplicate bag line for node {node}", lineno)
            bags[node] = bag
        elif kind == "te":
            s, t = fields(lineno, tokens, "te <s> <t>")
            if (min(s, t), max(s, t)) in edges:
                raise ParseError(f"duplicate tree edge {s} {t}", lineno)
            edges.add((min(s, t), max(s, t)))
        else:
            raise ParseError(f"unknown line kind {kind!r}", lineno)
    if count is None:
        raise ParseError("missing 't' header")
    if count != len(bags):
        raise ParseError(f"expected {count} bags, found {len(bags)}")
    try:
        return TreeDecomposition(bags, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from None
