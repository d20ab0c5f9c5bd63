import random

import pytest

from stripmwis.errors import ContractViolation, InputError
from stripmwis.esd import (EDGE_INTERIOR, FULL_EDGE, HALF_EDGE, TRIANGLE,
                           VERTEX, ExtendedStripDecomposition, check_pattern_degree,
                           components_esd, esd_from_text,
                           occurrence_bound, particles, restrict_esd,
                           validate_esd)
from stripmwis.graph import WeightedGraph

from helpers import esd_to_text, random_esd_instance


def single_edge_fixture():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"u", "v"}, {"u"}, {"v"})})
    return G, D


def test_trivial_esd_valid_and_rigid():
    G = WeightedGraph(range(4), [1] * 4, [(0, 1), (2, 3)])
    D = components_esd([G.label_set])
    assert validate_esd(G, D, require_rigid=True) == []
    ps = particles(D)
    assert len(ps) == 1 and ps[0].kind == VERTEX and ps[0].members == G.label_set


def test_single_edge_esd():
    G, D = single_edge_fixture()
    assert validate_esd(G, D, require_rigid=True) == []
    by_kind = {(p.kind, p.anchor): p for p in particles(D)}
    assert not by_kind[(VERTEX, (0,))].members
    assert not by_kind[(EDGE_INTERIOR, (0, 1))].members
    assert by_kind[(HALF_EDGE, ((0, 1), 0))].members == {"u"}
    assert by_kind[(HALF_EDGE, ((0, 1), 1))].members == {"v"}
    assert by_kind[(FULL_EDGE, (0, 1))].members == {"u", "v"}


def test_classes_outside_the_pattern_rejected():
    with pytest.raises(InputError, match="4"):
        ExtendedStripDecomposition((0,), [], {0: {"u"}, 4: set()}, {})
    with pytest.raises(InputError, match="0, 1"):
        ExtendedStripDecomposition((0, 1), [], {}, {(0, 1): (set(), set(), set())})


def test_p1_violation_reported():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"v"}, set(), {"v"})})
    report = validate_esd(G, D)
    assert any("P1" in item and "'u'" in item for item in report)


def test_p2_and_p3_violations_reported():
    # two edges at a shared pattern vertex whose end-sets are not complete
    G = WeightedGraph(["a", "b"], [1, 1], [])
    D = ExtendedStripDecomposition(
        (0, 1, 2), [(0, 1), (0, 2)], {0: set(), 1: set(), 2: set()},
        {(0, 1): ({"a"}, {"a"}, set()), (0, 2): ({"b"}, {"b"}, set())})
    report = validate_esd(G, D)
    assert any("P2" in item for item in report)

    # an edge between two unrelated vertex classes
    G2 = WeightedGraph(["a", "b"], [1, 1], [("a", "b")])
    D2 = ExtendedStripDecomposition((0, 1), [], {0: {"a"}, 1: {"b"}}, {})
    report2 = validate_esd(G2, D2)
    assert any("P3" in item for item in report2)


def test_triangle_particle_membership():
    G = WeightedGraph(["w"], [7], [])
    D = ExtendedStripDecomposition(
        (0, 1, 2), [(0, 1), (0, 2), (1, 2)],
        {0: set(), 1: set(), 2: set()},
        {(0, 1): (set(), set(), set()), (0, 2): (set(), set(), set()),
         (1, 2): (set(), set(), set())},
        {(0, 1, 2): {"w"}})
    assert validate_esd(G, D) == []
    holding = [p for p in particles(D) if "w" in p.members]
    kinds = sorted(p.kind for p in holding)
    assert kinds == [FULL_EDGE, FULL_EDGE, FULL_EDGE, TRIANGLE]
    assert occurrence_bound(D) == 4


def test_partition_size_matches_host():
    rng = random.Random(31)
    for _ in range(25):
        G, D = random_esd_instance(rng)
        total = sum(len(mem) for _, _, mem in D.all_classes())
        assert total == G.n
        assert validate_esd(G, D) == []


def test_restrict_identity_and_subset():
    G, D = single_edge_fixture()
    same = restrict_esd(D, G)
    assert validate_esd(G, same) == []
    sub = G.subgraph({"u"})
    R = restrict_esd(D, sub)
    assert validate_esd(sub, R) == []
    assert validate_esd(sub, R, require_rigid=True) != []  # eta(e, 1) now empty
    assert R.edge_sets[(0, 1)][0] == {"u"}


def test_restrict_trivial():
    G = WeightedGraph(range(4), [1] * 4, [(0, 1), (2, 3)])
    D = components_esd([G.label_set])
    sub = G.subgraph({0, 1})
    R = restrict_esd(D, sub)
    assert R.vertex_sets[0] == {0, 1}


def test_restrict_rejects_foreign_host():
    # the target must be an induced subgraph of the decomposed graph;
    # a host with vertices the classes never covered breaks the partition
    G3 = WeightedGraph(["a", "b"], [1, 1], [("a", "b")])
    D3 = ExtendedStripDecomposition((0,), [], {0: {"a", "b"}}, {})
    assert validate_esd(G3, D3) == []
    with pytest.raises(ContractViolation):
        restrict_esd(D3, WeightedGraph(["z"], [1], []))


def test_restrict_any_induced_subgraph_is_valid():
    rng = random.Random(17)
    for _ in range(15):
        G, D = random_esd_instance(rng)
        keep = frozenset(v for v in G.labels if rng.random() < 0.6)
        sub = G.subgraph(keep)
        R = restrict_esd(D, sub)
        assert validate_esd(sub, R) == []


def test_pattern_degree_and_occurrence_bounds():
    G, D = single_edge_fixture()
    assert check_pattern_degree(D, 3)       # degree 1 <= 2
    assert not check_pattern_degree(D, 1)   # degree 1 > 0
    rng = random.Random(7)
    for _ in range(20):
        G, D = random_esd_instance(rng)
        d = D.pattern_max_degree()
        assert occurrence_bound(D) <= max(4, 2 * d + 1)


def test_components_esd_rigid():
    G = WeightedGraph(range(5), [1] * 5, [(0, 1), (2, 3)])
    D = components_esd(G.components())
    assert validate_esd(G, D, require_rigid=True) == []


def test_interchange_round_trip():
    rng = random.Random(13)
    for _ in range(15):
        G, D = random_esd_instance(rng)
        text = esd_to_text(D)
        back = esd_from_text(text)
        assert validate_esd(G, back) == []
        assert esd_to_text(back) == text
