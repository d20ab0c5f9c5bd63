import random

import pytest

from stripmwis.errors import InputError, InvariantError
from stripmwis.matching import AuxGraph, matching_bruteforce, max_weight_matching


def aux_from_edges(edges):
    aux = AuxGraph()
    for u, v, w in edges:
        aux.add_edge(u, v, w)
    return aux


def test_empty_graph():
    assert max_weight_matching(AuxGraph()) == (frozenset(), 0)


def test_middle_edge_beats_two_light_ones():
    aux = aux_from_edges([("a", "b", 1), ("b", "c", 5), ("c", "d", 1)])
    matching, weight = max_weight_matching(aux)
    assert weight == 5
    assert matching == frozenset({frozenset(("b", "c"))})


def test_rejects_negative_weight_and_loops():
    aux = AuxGraph()
    with pytest.raises(InvariantError):
        aux.add_edge("a", "b", -1)
    with pytest.raises(InputError):
        aux.add_edge("a", "a", 1)


def test_matching_is_valid_and_weight_consistent():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(0, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        aux = aux_from_edges([(u, v, rng.randint(0, 20))
                              for u, v in pairs if rng.random() < 0.4])
        matching, weight = max_weight_matching(aux)
        used = set()
        for e in matching:
            u, v = tuple(e)
            assert u not in used and v not in used
            used |= {u, v}
        assert weight == aux.weight(matching)


def test_oracle_equivalence_small():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(0, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        aux = aux_from_edges([(u, v, rng.randint(0, 20))
                              for u, v in pairs if rng.random() < 0.5])
        _, got = max_weight_matching(aux)
        _, want = matching_bruteforce(aux)
        assert got == want


def test_isolated_vertex_and_scaling_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = [(u, v, rng.randint(0, 15)) for u, v in pairs if rng.random() < 0.5]
        aux = aux_from_edges(chosen)
        _, base = max_weight_matching(aux)
        with_iso = aux_from_edges(chosen)
        with_iso.add_node("isolated")
        assert max_weight_matching(with_iso)[1] == base
        scaled = aux_from_edges([(u, v, 7 * w) for u, v, w in chosen])
        assert max_weight_matching(scaled)[1] == 7 * base


def test_deterministic():
    rng = random.Random(4)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges = [(u, v, rng.randint(0, 9)) for u, v in pairs if rng.random() < 0.6]
    runs = {max_weight_matching(aux_from_edges(edges)) for _ in range(5)}
    assert len(runs) == 1


def test_components_sum_to_the_whole_matching():
    """On random graphs with zero-weight edges and isolated nodes, the
    components' maximum matchings add up to the exhaustive optimum."""
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 11)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        aux = aux_from_edges([(u, v, rng.choice((0, 0, 1, 2, rng.randint(3, 20))))
                              for u, v in pairs if rng.random() < 0.25])
        for i in range(rng.randint(0, 3)):
            aux.add_node(("isolated", i))
        comps = aux.components()
        nodes = [u for c in comps for u in c.nodes]
        assert len(nodes) == len(set(nodes)) == len({u for k in aux.edges for u in k})
        assert {k: w for c in comps for k, w in c.edges.items()} == aux.edges
        for c in comps:
            assert c.edges and all(k <= c.nodes.keys() for k in c.edges)
        matching, weight = frozenset(), 0
        for c in comps:
            m, w = max_weight_matching(c)
            matching |= m
            weight += w
        assert weight == aux.weight(matching) == matching_bruteforce(aux)[1]
