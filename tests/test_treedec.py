import random

import pytest

import stripmwis.treedec as treedec
from stripmwis.errors import CapacityError, InputError
from stripmwis.graph import WeightedGraph
from stripmwis.treedec import (TreeDecomposition, build_weissauer,
                               check_weissauer, high_degree_threshold,
                               td_from_text, torso,
                               validate_tree_decomposition)

from helpers import hub_caterpillar, same_graph, td_to_text, windmill_caterpillar


def p3():
    return WeightedGraph(["a", "b", "c"], [1] * 3, [("a", "b"), ("b", "c")])


def test_single_bag_always_valid():
    G = hub_caterpillar(random.Random(0), 20)
    td = TreeDecomposition({0: G.label_set}, [])
    assert validate_tree_decomposition(G, td) == []


def test_two_bag_path_decomposition():
    td = TreeDecomposition({0: {"a", "b"}, 1: {"b", "c"}}, [(0, 1)])
    assert validate_tree_decomposition(p3(), td) == []
    assert td.adhesion(0, 1) == {"b"}


def test_broken_connectivity_reported():
    td = TreeDecomposition({0: {"a", "b"}, 1: {"c"}, 2: {"b"}}, [(0, 1), (1, 2)])
    report = validate_tree_decomposition(p3(), td)
    assert any("not connected" in item for item in report)


def test_separation_violation_reported():
    # b missing from the shared bag: a-b edge not covered
    td = TreeDecomposition({0: {"a"}, 1: {"b", "c"}}, [(0, 1)])
    report = validate_tree_decomposition(p3(), td)
    assert any("covered by no bag" in item for item in report)


def test_torso_examples():
    G = WeightedGraph(["a", "b", "c", "d"], [1] * 4,
                      [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    td = TreeDecomposition({0: {"a", "b", "c"}, 1: {"a", "c", "d"}}, [(0, 1)])
    tor = torso(G, td, 0)
    assert tor.has_edge_labels("a", "c")  # adhesion completed to a clique
    single = TreeDecomposition({0: G.label_set}, [])
    assert same_graph(torso(G, single, 0), G)
    leaf = TreeDecomposition({0: {"a", "b"}, 1: {"b", "c", "d"}}, [(0, 1)])
    assert validate_tree_decomposition(G, leaf) != []  # edge a-d uncovered


def test_check_weissauer_conditions():
    G = p3()
    single = TreeDecomposition({0: G.label_set}, [])
    assert check_weissauer(G, single, 2) == []
    # adhesion of size k is a violation
    G2 = WeightedGraph(range(4), [1] * 4, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
    td = TreeDecomposition({0: {0, 1, 2}, 1: {1, 2, 3}}, [(0, 1)])
    assert validate_tree_decomposition(G2, td) == []
    assert any("adhesion" in item for item in check_weissauer(G2, td, 2))


def test_high_degree_violation_reported():
    star = WeightedGraph(range(7), [1] * 7, [(0, i) for i in range(1, 7)])
    td = TreeDecomposition({0: star.label_set}, [])
    thr = high_degree_threshold(2)
    assert star.degree(0) > thr
    # one high-degree vertex is fine for k=2 (cap is k)
    assert check_weissauer(star, td, 2) == []


def test_build_single_bag_when_few_high_degree():
    G = WeightedGraph(range(8), [1] * 8, [(i, i + 1) for i in range(7)])
    td = build_weissauer(G, 3)
    assert len(td.nodes) == 1
    assert check_weissauer(G, td, 3) == []


def test_build_splits_components():
    two = WeightedGraph(range(6), [1] * 6,
                        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    td = build_weissauer(two, 2)
    assert len(td.nodes) == 2
    assert all(len(td.adhesion(s, t)) == 0 for s, t in td.tree_edges)


def test_build_on_hub_graphs_passes_validators():
    rng = random.Random(5)
    for k in (2, 3):
        for _ in range(8):
            G = hub_caterpillar(rng, rng.randint(20, 40), hubs=4, hub_legs=7)
            td = build_weissauer(G, k)
            assert validate_tree_decomposition(G, td) == []
            assert check_weissauer(G, td, k) == []


def test_build_on_windmills_passes_validators():
    rng = random.Random(6)
    for _ in range(8):
        G = windmill_caterpillar(rng, rng.randint(25, 40), hubs=4)
        td = build_weissauer(G, 2)
        assert validate_tree_decomposition(G, td) == []
        assert check_weissauer(G, td, 2) == []


def test_split_budget_guard(monkeypatch):
    # four hubs of degree above 2k(k-1) = 4 are too many for one bag at k=2
    monkeypatch.setattr(treedec, "MAX_SPLITS", 0)
    G = hub_caterpillar(random.Random(5), 30, hubs=4, hub_legs=7)
    with pytest.raises(CapacityError, match=r"^treedec: MAX_SPLITS=0 "):
        build_weissauer(G, 2)


def test_build_requires_k_at_least_two():
    with pytest.raises(InputError):
        build_weissauer(p3(), 1)


def test_td_text_round_trip():
    G = hub_caterpillar(random.Random(1), 24)
    td = build_weissauer(G, 2)
    back = td_from_text(td_to_text(td))
    assert validate_tree_decomposition(G, back) == []
    assert td_to_text(back) == td_to_text(td)
