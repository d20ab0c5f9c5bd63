import random

import pytest

from stripmwis import bnb
from stripmwis.border import brute_force_border
from stripmwis.errors import CapacityError
from stripmwis.graph import WeightedGraph
from stripmwis.oracle import mwis_bruteforce, verify_solution

from helpers import random_graph, union_graph


def test_c5_unit():
    G = WeightedGraph(range(5), [1] * 5, [(i, (i + 1) % 5) for i in range(5)])
    assert mwis_bruteforce(G)[0] == 2


def test_empty_graph():
    G = WeightedGraph([], [], [])
    w, wit = mwis_bruteforce(G)
    assert (w, wit) == (0, frozenset())


def test_p4_weights():
    G = WeightedGraph(range(4), [1, 9, 9, 1], [(0, 1), (1, 2), (2, 3)])
    w, wit = mwis_bruteforce(G)
    assert w == 10 and G.total_weight(wit) == 10


def test_budget_guard():
    G = WeightedGraph(range(41), [1] * 41, [])
    with pytest.raises(CapacityError, match=r"^oracle: 41 vertices .*MAX_LEAF_VERTICES=40"):
        mwis_bruteforce(G)


def test_node_budget_guard(monkeypatch):
    # a 5-cycle has no isolated vertex, so the search must branch
    monkeypatch.setattr(bnb, "MAX_NODES", 1)
    G = WeightedGraph(range(5), [1] * 5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(CapacityError, match=r"^bnb: .*MAX_NODES=1"):
        mwis_bruteforce(G)


def _exhaustive_mwis(adj, weights, alive):
    # every subset of `alive`, each built from the one without its highest vertex
    masks, values, independent = [0], [0], [True]
    for v in range(len(weights)):
        if alive >> v & 1:
            for s in range(len(masks)):
                masks.append(masks[s] | 1 << v)
                values.append(values[s] + weights[v])
                independent.append(independent[s] and not adj[v] & masks[s])
    return max(w for w, ok in zip(values, independent) if ok)


def test_max_weight_set_matches_exhaustive_enumeration():
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(0, 12)
        p = rng.random()
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        weights = [rng.randint(0, 50) if rng.random() < 0.6 else 0 for _ in range(n)]
        alive = rng.getrandbits(n) if rng.random() < 0.5 else (1 << n) - 1
        value, mask = bnb.max_weight_set(adj, weights, alive)
        assert value == _exhaustive_mwis(adj, weights, alive)
        assert mask & ~alive == 0
        taken = [v for v in range(n) if mask >> v & 1]
        assert all(not adj[v] & mask for v in taken)
        assert sum(weights[v] for v in taken) == value


def test_doubling_and_additivity():
    rng = random.Random(8)
    for _ in range(20):
        G = random_graph(rng, rng.randint(0, 12), 0.4)
        w, _ = mwis_bruteforce(G)
        doubled = WeightedGraph(G.labels, [2 * x for x in G.weights],
                                [(G.labels[u], G.labels[v]) for u, v in G.edges_ids()])
        assert mwis_bruteforce(doubled)[0] == 2 * w
        H = random_graph(rng, rng.randint(0, 10), 0.4)
        both = union_graph([G, H])
        assert mwis_bruteforce(both)[0] == w + mwis_bruteforce(H)[0]


def test_witness_weight_always_matches():
    rng = random.Random(9)
    for _ in range(30):
        G = random_graph(rng, rng.randint(0, 14), rng.uniform(0.1, 0.7))
        w, wit = mwis_bruteforce(G)
        assert G.is_independent(wit)
        assert G.total_weight(wit) == w


def test_verify_solution_empty_report_and_mismatch():
    rng = random.Random(10)
    G = random_graph(rng, 8, 0.4)
    T = frozenset(list(G.labels)[:3])
    prof = brute_force_border(G, T)
    assert verify_solution(G, T, prof) == []
    cell = next(m for m, v in prof.cells() if v is not None)
    prof.table[cell] += 1
    report = verify_solution(G, T, prof)
    assert len(report) == 1


def test_verify_solution_single_cell_against_oracle():
    rng = random.Random(12)
    G = random_graph(rng, 10, 0.3)
    prof = brute_force_border(G, set())
    assert prof.table[0] == mwis_bruteforce(G)[0]


def _recursive_independent_sets(conflicts):
    # the reference order: depth first, "skip item i" before "take item i"
    def rec(i, mask, forbidden):
        if i == len(conflicts):
            yield mask
            return
        yield from rec(i + 1, mask, forbidden)
        if not forbidden >> i & 1:
            yield from rec(i + 1, mask | 1 << i, forbidden | conflicts[i])

    return rec(0, 0, 0)


def test_independent_sets_in_the_recursive_order():
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randint(0, 11)
        p = rng.random()
        conflicts = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < p:
                    conflicts[i] |= 1 << j
                    conflicts[j] |= 1 << i
        assert list(bnb.iter_independent_sets(conflicts)) \
            == list(_recursive_independent_sets(conflicts))
