"""Maximum-weight matching on small edge-weighted graphs.

The solver is the blossom implementation shipped with networkx, wrapped
behind a deterministic interface; an exhaustive matcher ships alongside
as the independent oracle for the test suite.  networkx is imported on
first use, so that importing the package does not load it.

A maximum-weight matching of a graph is the union of maximum-weight
matchings of its connected components, so the combination step splits
each auxiliary graph with `AuxGraph.components` and runs the blossom
once per distinct component (see `border.combine_esd`).
"""

from __future__ import annotations

from .errors import InputError, InvariantError


def _node_key(u):
    return (str(type(u)), repr(u))


class AuxGraph:
    """Simple undirected graph with non-negative integer edge weights."""

    def __init__(self):
        self.nodes = {}          # node -> its sort key, in insertion order
        self.edges = {}

    def add_node(self, u):
        if u not in self.nodes:
            self.nodes[u] = _node_key(u)

    def add_edge(self, u, v, w):
        if u == v:
            raise InputError("self-loop in auxiliary graph")
        if w < 0:
            raise InvariantError(f"negative auxiliary edge weight {w} on {u!r}-{v!r}")
        key = frozenset((u, v))
        if key in self.edges:
            raise InputError(f"duplicate auxiliary edge {u!r}-{v!r}")
        self.add_node(u)
        self.add_node(v)
        self.edges[key] = int(w)

    def components(self):
        """The connected components that have an edge, each as an AuxGraph,
        in the order of their first edge; isolated nodes are left out."""
        adj = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        comp_of = {}
        out = []
        for start in adj:
            if start in comp_of:
                continue
            comp = AuxGraph()
            comp_of[start] = comp
            stack = [start]
            while stack:
                u = stack.pop()
                comp.nodes[u] = self.nodes[u]
                for v in adj[u]:
                    if v not in comp_of:
                        comp_of[v] = comp
                        stack.append(v)
            out.append(comp)
        for key, w in self.edges.items():
            comp_of[next(iter(key))].edges[key] = w
        return out

    def sorted_edges(self):
        return sorted(
            ((tuple(sorted(k, key=self.nodes.__getitem__)), w) for k, w in self.edges.items()),
            key=lambda it: (self.nodes[it[0][0]], self.nodes[it[0][1]]),
        )

    def weight(self, matching) -> int:
        return sum(self.edges[frozenset(e)] for e in matching)


def max_weight_matching(aux: AuxGraph):
    """Maximum total weight over all matchings (any cardinality).

    Returns (matching, weight) where the matching is a frozenset of
    2-element frozensets.  Deterministic for a fixed input.
    """
    if not aux.edges:
        return frozenset(), 0
    import networkx as nx

    g = nx.Graph()
    for u in sorted(aux.nodes, key=aux.nodes.__getitem__):
        g.add_node(u)
    for (u, v), w in aux.sorted_edges():
        g.add_edge(u, v, weight=w)
    m = nx.max_weight_matching(g, maxcardinality=False, weight="weight")
    matching = frozenset(frozenset(e) for e in m)
    return matching, aux.weight(matching)


def matching_bruteforce(aux: AuxGraph):
    """Exhaustive enumeration over all matchings; the test oracle."""
    edges = aux.sorted_edges()
    best_w = 0
    best = frozenset()

    def rec(i, used, cur_w, cur):
        nonlocal best_w, best
        if cur_w > best_w:
            best_w = cur_w
            best = frozenset(frozenset(e) for e in cur)
        if i == len(edges):
            return
        rec(i + 1, used, cur_w, cur)
        (u, v), w = edges[i]
        if u not in used and v not in used:
            cur.append((u, v))
            rec(i + 1, used | {u, v}, cur_w + w, cur)
            cur.pop()

    rec(0, frozenset(), 0, [])
    return best, best_w
