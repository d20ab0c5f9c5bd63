import random

import pytest

from stripmwis.errors import InputError
from stripmwis.generate import generate_random_instance, generate_subdivided_claw
from stripmwis.graph import WeightedGraph
from stripmwis.patterns import (contains_biclique_subgraph, find_induced_sttt,
                                witness_violations)

from helpers import (hub_caterpillar, naive_find_sttt, random_graph, reference_find_sttt,
                     windmill_caterpillar)


def test_claw_is_found_at_t1():
    claw = generate_subdivided_claw(1, 1, 1)
    w = find_induced_sttt(claw, 1)
    assert w is not None
    assert not witness_violations(claw, w)
    assert w.leg_lengths() == (1, 1, 1)


def test_paths_have_no_claw():
    for n in range(1, 9):
        p = WeightedGraph(range(n), [1] * n, [(i, i + 1) for i in range(n - 1)])
        assert find_induced_sttt(p, 1) is None


def test_self_containment():
    g = generate_subdivided_claw(2, 2, 2)
    w = find_induced_sttt(g, 2)
    assert w is not None
    assert w.vertex_set == g.label_set
    assert not witness_violations(g, w)


def test_longer_legs_do_not_match_smaller_t_center_shift():
    # S_{3,3,3} contains S_{2,2,2} (truncate each leg), but S_{1,1,2} has
    # no S_{2,2,2}
    big = generate_subdivided_claw(3, 3, 3)
    assert find_induced_sttt(big, 2) is not None
    chair = generate_subdivided_claw(1, 1, 2)
    assert find_induced_sttt(chair, 2) is None


def test_witness_is_always_valid_and_oracle_agrees():
    rng = random.Random(42)
    for t in (1, 2):
        for _ in range(60):
            n = rng.randint(0, 10 if t == 1 else 12)
            G = random_graph(rng, n, rng.uniform(0.1, 0.6))
            w = find_induced_sttt(G, t)
            assert (w is not None) == naive_find_sttt(G, t)
            if w is not None:
                assert not witness_violations(G, w)
                assert w.leg_lengths() == (t,) * 3


def planted_claw(rng: random.Random, n: int, t: int) -> WeightedGraph:
    """A random graph on n >= 3t + 1 vertices in which a random vertex set
    induces S_{t,t,t}: the edges inside the set are replaced by the claw's."""
    G = random_graph(rng, n, rng.uniform(0.1, 0.5))
    spots = rng.sample(range(n), 3 * t + 1)
    claw = [(spots[0], spots[1 + leg * t]) for leg in range(3)] + [
        (spots[1 + leg * t + i], spots[2 + leg * t + i])
        for leg in range(3) for i in range(t - 1)]
    inside = set(spots)
    edges = [(G.labels[u], G.labels[v]) for u, v in G.edges_ids()
             if not (u in inside and v in inside)]
    return WeightedGraph(G.labels, G.weights, edges + claw)


def test_search_returns_the_witness_of_the_plain_search():
    rng = random.Random(29)
    graphs = []
    for _ in range(80):
        graphs.append(random_graph(rng, rng.randint(0, 14), rng.uniform(0.1, 0.6)))
    for seed in range(12):
        for t in (1, 2, 3):
            graphs.append(generate_random_instance(rng.randint(8, 30), rng.randint(3, 5),
                                                   t, seed))
    for n in (20, 40, 80):
        graphs.append(hub_caterpillar(rng, n))
        graphs.append(windmill_caterpillar(rng, n))
    planted = {t: [planted_claw(rng, rng.randint(3 * t + 1, 3 * t + 8), t)
                   for _ in range(15)] for t in (1, 2, 3)}
    for G in graphs + [G for gs in planted.values() for G in gs]:
        for t in (1, 2, 3):
            w = find_induced_sttt(G, t)
            assert w == reference_find_sttt(G, t)
            if any(G is H for H in planted[t]):
                assert w is not None and not witness_violations(G, w)


def test_input_validation():
    g = generate_subdivided_claw(1, 1, 1)
    with pytest.raises(InputError):
        find_induced_sttt(g, 0)
    with pytest.raises(InputError):
        contains_biclique_subgraph(g, 0)


def test_biclique_examples():
    c4 = WeightedGraph(range(4), [1] * 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert contains_biclique_subgraph(c4, 2)
    tree = WeightedGraph(range(6), [1] * 6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert not contains_biclique_subgraph(tree, 2)
    k5 = WeightedGraph(range(5), [1] * 5,
                       [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert contains_biclique_subgraph(k5, 2)
    assert contains_biclique_subgraph(k5, 1)  # K_{1,1} is an edge


def test_biclique_oracle_small():
    from itertools import combinations
    rng = random.Random(9)

    def naive(G, t):
        verts = range(G.n)
        for A in combinations(verts, t):
            for B in combinations(verts, t):
                if set(A) & set(B):
                    continue
                if all(G.label_of(b) in G.neighbors_labels(G.label_of(a))
                       for a in A for b in B):
                    return True
        return False

    for _ in range(40):
        G = random_graph(rng, rng.randint(0, 9), rng.uniform(0.2, 0.7))
        for t in (1, 2, 3):
            assert contains_biclique_subgraph(G, t) == naive(G, t)
