import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripmwis.errors import InputError
from stripmwis.graph import WeightedGraph, line_graph

from helpers import random_graph
import random


def triangle():
    return WeightedGraph(["a", "b", "c"], [1, 2, 3],
                         [("a", "b"), ("b", "c"), ("a", "c")])


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        WeightedGraph(["a", "a"], [1, 1], [])
    with pytest.raises(InputError):
        WeightedGraph(["a"], [-1], [])
    with pytest.raises(InputError):
        WeightedGraph(["a"], [1], [("a", "a")])
    with pytest.raises(InputError):
        WeightedGraph(["a"], [1], [("a", "b")])


def test_induced_subgraph_restriction():
    G = triangle()
    S = G.subgraph({"a", "b"})
    assert S.n == 2 and S.edge_count() == 1
    assert S.weight_of("a") == 1 and S.weight_of("b") == 2


def test_induced_subgraph_identity_and_empty():
    G = triangle()
    assert G.subgraph(G.label_set).equal_to(G)
    empty = G.subgraph(set())
    assert empty.n == 0 and empty.edge_count() == 0


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(InputError):
        triangle().subgraph({"a", "zz"})


def test_labels_stable_across_nesting():
    G = WeightedGraph(range(6), [1] * 6, [(i, i + 1) for i in range(5)])
    S1 = G.subgraph({1, 2, 3, 4})
    S2 = S1.subgraph({2, 3})
    assert S2.label_set == {2, 3}
    assert S2.has_edge_labels(2, 3)


def test_line_graph_examples():
    p3 = WeightedGraph(range(3), [1] * 3, [(0, 1), (1, 2)])
    L = line_graph(p3)
    assert L.n == 2 and L.edge_count() == 1

    tri = triangle()
    Lt = line_graph(tri)
    assert Lt.n == 3 and Lt.edge_count() == 3

    claw = WeightedGraph(range(4), [1] * 4, [(0, 1), (0, 2), (0, 3)])
    Lc = line_graph(claw)
    assert Lc.n == 3 and Lc.edge_count() == 3


def test_line_graph_weights_keyed_by_edge():
    p3 = WeightedGraph(range(3), [1] * 3, [(0, 1), (1, 2)])
    L = line_graph(p3, {frozenset((0, 1)): 5, frozenset((1, 2)): 9})
    assert sorted(L.weights) == [5, 9]


def test_line_graph_of_degree_two_graph_is_paths_and_cycles():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [(i, i + 1) for i in range(n - 1)]
        if rng.random() < 0.5 and n >= 3:
            edges.append((n - 1, 0))
        G = WeightedGraph(range(n), [1] * n, edges)
        L = line_graph(G)
        assert L.max_degree() <= 2


def test_neighborhoods():
    G = WeightedGraph(range(5), [1] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert G.closed_neighborhood({2}) == {1, 2, 3}
    assert G.open_neighborhood({2}) == {1, 3}
    assert G.open_neighborhood({1, 2}) == {0, 3}


@given(st.integers(0, 10), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_components_partition(n, seed):
    G = random_graph(random.Random(seed), n, 0.25)
    comps = G.components()
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
    assert seen == G.label_set
