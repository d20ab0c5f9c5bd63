"""Answers computed apart from the program, and the output checks.

Nothing here imports the program.  The oracles:

- line graphs: MWIS of L(R) is a maximum-weight matching of the root
  graph R (networkx blossom matching);
- `combine_linegraph`: every cell S of the profile over the terminal
  edges T is -inf unless S is a matching of R, and otherwise w(S) plus
  the best matching of R without the endpoints of S and without the
  edges of T \\ S;
- cycles: dynamic programming over the two paths left by deciding the
  first vertex;
- caterpillars: dynamic programming over the block tree (every block of
  a hub or windmill caterpillar is an edge or a triangle, so a clique).

Every witness is checked independently: distinct vertices of the graph,
no edge inside, and weight equal to the reported value.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


#: Workloads whose solver is asked for a witness set.
WITNESS_WORKLOADS = ("degree_cycle", "biclique_caterpillar")


def matching_value(n, edges, weights, drop_vertices=(), drop_edges=()):
    """Maximum total weight of a matching of the root graph, without the
    vertices `drop_vertices` and the edges `drop_edges`."""
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    for (u, v), w in zip(edges, weights):
        g.add_edge(u, v, weight=w)
    g.remove_nodes_from(drop_vertices)
    g.remove_edges_from(e for e in drop_edges if g.has_edge(*e))
    return sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))


def cycle_mwis(weights):
    """MWIS of the cycle 1-2-...-n-1: either vertex 1 is out (a path on
    2..n) or it is in (its weight plus a path on 3..n-1)."""
    def path(ws):
        take, skip = 0, 0
        for w in ws:
            take, skip = skip + w, max(take, skip)
        return max(take, skip)

    if len(weights) < 3:
        raise ValueError("a cycle needs at least three vertices")
    return max(path(weights[1:]), weights[0] + path(weights[2:-1]))


def block_graph_mwis(n, edges, weights):
    """MWIS of a graph whose blocks are all cliques, by a DP over the
    block tree of each component rooted at its smallest vertex:
    `inc[v]` (v taken) and `exc[v]` (v not taken) over the part of the
    graph hanging below v."""
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    blocks = [sorted(b) for b in nx.biconnected_components(g)]
    for b in blocks:
        if any(not g.has_edge(u, v) for u, v in combinations(b, 2)):
            raise ValueError(f"block {b} is not a clique")
    blocks_of = {v: [] for v in g}
    for i, b in enumerate(blocks):
        for v in b:
            blocks_of[v].append(i)

    total = 0
    seen_blocks = set()
    for comp in nx.connected_components(g):
        root = min(comp)
        order = [root]
        children = {}
        for v in order:
            children[v] = []
            for bi in blocks_of[v]:
                if bi in seen_blocks:
                    continue
                seen_blocks.add(bi)
                kids = [u for u in blocks[bi] if u != v]
                children[v].append(kids)
                order.extend(kids)
        inc, exc = {}, {}
        for v in reversed(order):
            inc[v] = weights[v - 1]
            exc[v] = 0
            for kids in children[v]:
                none = sum(exc[u] for u in kids)
                inc[v] += none
                exc[v] += max([none] + [none - exc[u] + inc[u] for u in kids])
        total += max(inc[root], exc[root])
    return total


def combine_cells(inst):
    """{frozenset of terminal edge indices: cell value or None (-inf)}."""
    edges = [tuple(e) for e in inst["edges"]]
    terms = inst["terminals"]
    cells = {}
    for r in range(len(terms) + 1):
        for S in combinations(terms, r):
            ends = [x for i in S for x in edges[i]]
            if len(set(ends)) != len(ends):
                cells[frozenset(S)] = None
                continue
            rest = [edges[i] for i in terms if i not in S]
            cells[frozenset(S)] = (sum(inst["weights"][i] for i in S)
                                   + matching_value(inst["n"], edges, inst["weights"],
                                                    ends, rest))
    return cells


def expected(workload, inst):
    """The oracle answer for one instance of a workload."""
    if workload == "degree_linegraph":
        return matching_value(inst["n"], [tuple(e) for e in inst["edges"]], inst["weights"])
    if workload == "degree_cycle":
        return cycle_mwis(inst["weights"])
    if workload == "biclique_caterpillar":
        return block_graph_mwis(inst["n"], inst["edges"], inst["weights"])
    if workload == "combine_linegraph":
        return combine_cells(inst)
    raise ValueError(f"unknown workload {workload!r}")


def witness_error(inst, witness, value):
    """None when `witness` is an independent vertex set of weight `value`."""
    chosen = set(witness)
    if len(chosen) != len(witness):
        return "witness repeats a vertex"
    if not chosen <= set(range(1, inst["n"] + 1)):
        return "witness names a vertex outside the graph"
    for u, v in inst["edges"]:
        if u in chosen and v in chosen:
            return f"witness holds both ends of edge {u}-{v}"
    weight = sum(inst["weights"][v - 1] for v in chosen)
    if weight != value:
        return f"witness weighs {weight}, value is {value}"
    return None


def check(workload, inst, want, out):
    """None when the worker's output `out` for `inst` is right; otherwise
    a one-line description of what is wrong."""
    if workload == "combine_linegraph":
        order = out["terminals"]
        if sorted(order) != sorted(inst["terminals"]):
            return "profile terminals differ from the instance's"
        table = out["table"]
        if len(table) != 1 << len(order):
            return f"profile has {len(table)} cells, expected {1 << len(order)}"
        for mask, got in enumerate(table):
            S = frozenset(order[i] for i in range(len(order)) if mask >> i & 1)
            if got != want[S]:
                return f"cell {sorted(S)}: got {got}, expected {want[S]}"
        return None
    if out["value"] != want:
        return f"value {out['value']}, expected {want}"
    if workload in WITNESS_WORKLOADS:
        if out.get("witness") is None:
            return "no witness returned"
        return witness_error(inst, out["witness"], out["value"])
    return None
