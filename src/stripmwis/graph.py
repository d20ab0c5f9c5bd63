"""Vertex-weighted undirected simple graphs.

Vertices live at dense ids 0..n-1 inside each graph; every vertex also
carries a stable hashable label.  Labels survive `WeightedGraph.subgraph`,
so vertex sets (terminals, separators, decomposition classes) can be
intersected across different induced subgraphs of a common root graph.
All public set-valued arguments and results are label sets; ids and the
bitmask adjacency are an internal representation for the hot loops.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .errors import InputError


class WeightedGraph:
    __slots__ = ("n", "labels", "weights", "adj", "_label_ids", "_adj_masks")

    def __init__(self, labels, weights, edges):
        """Build a graph from a label sequence, parallel weights, and label pairs."""
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_ids) != self.n:
            raise InputError("duplicate vertex labels")
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != self.n:
            raise InputError("weights do not match vertex count")
        if any(w < 0 for w in self.weights):
            raise InputError("vertex weights must be non-negative")
        adj = [set() for _ in range(self.n)]
        for a, b in edges:
            u, v = self.id_of(a), self.id_of(b)
            if u == v:
                raise InputError(f"self-loop at vertex {a!r}")
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)
        self._adj_masks = None

    # -- identity -----------------------------------------------------------

    def id_of(self, label) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise InputError(f"unknown vertex {label!r}") from None

    def label_of(self, vid: int):
        return self.labels[vid]

    def has_label(self, label) -> bool:
        return label in self._label_ids

    def ids_of(self, labels) -> list:
        return [self.id_of(l) for l in labels]

    def labels_of(self, ids) -> frozenset:
        return frozenset(self.labels[i] for i in ids)

    @property
    def label_set(self) -> frozenset:
        return frozenset(self.labels)

    # -- basic queries -------------------------------------------------------

    def degree(self, vid: int) -> int:
        return len(self.adj[vid])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge_labels(self, a, b) -> bool:
        return self.id_of(b) in self.adj[self.id_of(a)]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges_ids(self):
        """Sorted (u, v) id pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def neighbors_labels(self, label) -> frozenset:
        return self.labels_of(self.adj[self.id_of(label)])

    def weight_of(self, label) -> int:
        return self.weights[self.id_of(label)]

    def total_weight(self, labels) -> int:
        return sum(self.weights[self.id_of(l)] for l in labels)

    def is_independent(self, labels) -> bool:
        ids = self.ids_of(labels)
        idset = set(ids)
        return all(not (self.adj[i] & idset) for i in ids)

    def closed_neighborhood(self, labels) -> frozenset:
        """N[S] as a label set."""
        ids = set(self.ids_of(labels))
        out = set(ids)
        for i in ids:
            out |= self.adj[i]
        return self.labels_of(out)

    def open_neighborhood(self, labels) -> frozenset:
        """N(S) as a label set."""
        ids = set(self.ids_of(labels))
        out = set()
        for i in ids:
            out |= self.adj[i]
        return self.labels_of(out - ids)

    # -- bitmask view --------------------------------------------------------

    @property
    def adj_masks(self):
        if self._adj_masks is None:
            masks = []
            for nbrs in self.adj:
                m = 0
                for v in nbrs:
                    m |= 1 << v
                masks.append(m)
            self._adj_masks = tuple(masks)
        return self._adj_masks

    def mask_of_labels(self, labels) -> int:
        m = 0
        for l in labels:
            m |= 1 << self.id_of(l)
        return m

    def labels_of_mask(self, mask: int) -> frozenset:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.labels[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- derived graphs ------------------------------------------------------

    def subgraph(self, labels) -> "WeightedGraph":
        keep = set(self.ids_of(labels))
        order = [i for i in range(self.n) if i in keep]
        labs = [self.labels[i] for i in order]
        ws = [self.weights[i] for i in order]
        es = []
        for i in order:
            for j in self.adj[i]:
                if j in keep and i < j:
                    es.append((self.labels[i], self.labels[j]))
        return WeightedGraph(labs, ws, es)

    def components(self) -> list:
        """Connected components as label frozensets, ordered by smallest id."""
        masks = components_masks(self.adj_masks, (1 << self.n) - 1)
        return [self.labels_of_mask(m) for m in masks]

    def equal_to(self, other: "WeightedGraph") -> bool:
        """Same labelled graph: identical label set, weights, and edges."""
        if self.label_set != other.label_set:
            return False
        if any(self.weight_of(l) != other.weight_of(l) for l in self.labels):
            return False
        mine = {frozenset((self.labels[u], self.labels[v])) for u, v in self.edges_ids()}
        theirs = {frozenset((other.labels[u], other.labels[v])) for u, v in other.edges_ids()}
        return mine == theirs

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.edge_count()})"


def line_graph(G: WeightedGraph, edge_weights: Mapping | None = None) -> WeightedGraph:
    """Line graph of G; vertex weights are taken from `edge_weights`
    (keyed by frozenset of the two endpoint labels, default 1)."""
    edges = [(G.labels[u], G.labels[v]) for u, v in G.edges_ids()]
    labs = [tuple(sorted(e, key=repr)) for e in edges]
    if edge_weights is None:
        ws = [1] * len(labs)
    else:
        ws = [edge_weights[frozenset(e)] for e in edges]
    les = []
    for i in range(len(labs)):
        si = set(labs[i])
        for j in range(i + 1, len(labs)):
            if si & set(labs[j]):
                les.append((labs[i], labs[j]))
    return WeightedGraph(labs, ws, les)


def components_masks(adj_masks, alive: int) -> list:
    """Connected components of the vertices in `alive`, as bitmasks,
    ordered by their lowest vertex id."""
    comps = []
    rest = alive
    while rest:
        low = rest & -rest
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj_masks[b.bit_length() - 1]
                f ^= b
            frontier = nxt & alive & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def sort_labels(labels) -> list:
    """Deterministic label ordering that tolerates mixed label types;
    integers sort numerically."""
    return sorted(labels,
                  key=lambda l: (str(type(l)), l if isinstance(l, int) else 0, repr(l)))
