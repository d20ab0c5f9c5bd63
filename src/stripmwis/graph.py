"""Vertex-weighted undirected simple graphs.

Vertices live at dense ids 0..n-1 inside each graph; every vertex also
carries a stable hashable label.  Labels survive `WeightedGraph.subgraph`,
so vertex sets (terminals, separators, decomposition classes) can be
intersected across different induced subgraphs of a common root graph.
All public set-valued arguments and results are label sets; ids and the
bitmask adjacency are an internal representation for the hot loops.

Graphs are never mutated.  A subgraph is built in ids from its parent,
which has already checked labels, weights and edges; the subgraph on
every vertex is the graph itself, and each graph keeps the last subgraph
it built until it is asked for again, so that the remainder a
decomposition check builds is the one the solver then recurses on.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InputError


class WeightedGraph:
    __slots__ = ("n", "labels", "weights", "adj", "_label_ids", "_adj_masks",
                 "_label_set", "_last_subgraph")

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
        self._label_set = None
        self._last_subgraph = None

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
        if self._label_set is None:
            self._label_set = frozenset(self.labels)
        return self._label_set

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

    def conflict_masks(self, ids) -> list:
        """Per id in `ids`, its neighbors among `ids` as bits over positions
        in `ids`: the conflicts that `bnb.iter_independent_sets` reads."""
        pos = {v: j for j, v in enumerate(ids)}
        return [sum(1 << pos[u] for u in self.adj[v] if u in pos) for v in ids]

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
        """The subgraph induced by `labels`, its vertices in this graph's
        order.  Graphs are never mutated, so the subgraph on every vertex
        is this graph itself, and the last subgraph built is kept until it
        is asked for again: the second request for the same label set
        returns the same graph.  Handing it out once keeps a graph from
        holding a chain of finished subgraphs alive."""
        key = labels if isinstance(labels, frozenset) else frozenset(labels)
        last = self._last_subgraph
        if last is not None and last[0] == key:
            self._last_subgraph = None
            return last[1]
        ids = self._label_ids
        try:
            keep = sorted([ids[lab] for lab in key])
        except KeyError as exc:
            raise InputError(f"unknown vertex {exc.args[0]!r}") from None
        if len(keep) == self.n:
            return self
        new_id = {v: i for i, v in enumerate(keep)}
        H = WeightedGraph.__new__(WeightedGraph)
        H.n = len(keep)
        H.labels = tuple(self.labels[v] for v in keep)
        H.weights = tuple(self.weights[v] for v in keep)
        H.adj = tuple(frozenset(new_id[u] for u in self.adj[v] if u in new_id)
                      for v in keep)
        H._label_ids = dict(zip(H.labels, range(H.n)))
        H._adj_masks = None
        H._label_set = key
        H._last_subgraph = None
        self._last_subgraph = (key, H)
        return H

    def components(self) -> list:
        """Connected components as label frozensets, ordered by smallest id."""
        masks = components_masks(self.adj_masks, (1 << self.n) - 1)
        return [self.labels_of_mask(m) for m in masks]

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
