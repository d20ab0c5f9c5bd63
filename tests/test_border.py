import random

import pytest

from stripmwis.border import (BorderProfile, brute_force_border,
                              build_combination_plan, combine_esd,
                              reconstruct_witness)
from stripmwis.bnb import iter_independent_sets
from stripmwis.errors import CapacityError, ContractViolation
from stripmwis.esd import (ExtendedStripDecomposition, components_esd, particles,
                           validate_esd)
from stripmwis.graph import WeightedGraph, line_graph
from stripmwis.matching import AuxGraph, matching_bruteforce, max_weight_matching

from helpers import random_esd_instance, random_graph


def particle_profiles(G, D, T, with_witnesses=False):
    return {p: brute_force_border(G.subgraph(p.members), frozenset(T) & p.members,
                                  with_witnesses=with_witnesses)
            for p in particles(D)}


def test_single_vertex_profile():
    G = WeightedGraph(["v"], [5], [])
    prof = brute_force_border(G, {"v"})
    assert prof.value(set()) == 0
    assert prof.value({"v"}) == 5


def test_edge_profile():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    prof = brute_force_border(G, {"u", "v"})
    assert prof.value(set()) == 0          # both vertices are terminals held out
    assert prof.value({"u"}) == 2
    assert prof.value({"v"}) == 3
    assert prof.value({"u", "v"}) is None


def test_p4_no_terminals():
    G = WeightedGraph(range(4), [1, 9, 9, 1], [(0, 1), (1, 2), (2, 3)])
    prof = brute_force_border(G, set())
    assert prof.value(set()) == 10


def test_capacity_guards():
    big = WeightedGraph(range(41), [1] * 41, [])
    with pytest.raises(CapacityError, match=r"^border: .*MAX_LEAF_VERTICES=40"):
        brute_force_border(big, set())
    G = WeightedGraph(range(22), [1] * 22, [])
    with pytest.raises(CapacityError, match=r"^border: .*MAX_LEAF_TERMINALS=20"):
        brute_force_border(G, set(G.labels))


def test_profile_terminal_cap():
    with pytest.raises(CapacityError, match=r"^border: .*MAX_PROFILE_TERMINALS=26"):
        BorderProfile(range(27))
    BorderProfile(range(26))  # at the cap is fine


def test_profile_sanity():
    rng = random.Random(11)
    for _ in range(20):
        G = random_graph(rng, rng.randint(0, 10), 0.3)
        T = frozenset(rng.sample(list(G.labels), min(G.n, 4)))
        prof = brute_force_border(G, T)
        assert prof.sanity_report(G) == []


def test_combine_trivial_esd_passthrough():
    rng = random.Random(5)
    for _ in range(10):
        G = random_graph(rng, rng.randint(1, 9), 0.35)
        D = components_esd([G.label_set])
        T = frozenset(rng.sample(list(G.labels), min(G.n, 3)))
        profs = particle_profiles(G, D, T)
        combined = combine_esd(G, T, D, profs)
        assert combined.same_table(brute_force_border(G, T))


def test_combine_single_edge_case_one():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"u", "v"}, {"u"}, {"v"})})
    profs = particle_profiles(G, D, set())
    combined = combine_esd(G, set(), D, profs)
    assert combined.table[0] == 3
    # the auxiliary graph of the empty trace carries the documented weights
    plan = build_combination_plan(
        G, D, frozenset(), lambda p: profs[p].value(frozenset()))
    weights = sorted(plan.aux.edges.values())
    assert weights == [2, 3, 3]
    assert plan.base_weight == 0


def test_missing_profile_is_contract_violation():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = components_esd([G.label_set])
    with pytest.raises(ContractViolation):
        combine_esd(G, set(), D, {})


def test_reconstruct_witness_rules():
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"u", "v"}, {"u"}, {"v"})})
    profs = particle_profiles(G, D, set(), with_witnesses=True)
    plan = build_combination_plan(
        G, D, frozenset(),
        lambda p: profs[p].value(frozenset()),
        lambda p: profs[p].witness(frozenset()))
    # empty matching: the base family of empty particles
    assert reconstruct_witness(plan, frozenset()) == frozenset()
    # taking the slack edge toward pattern vertex 1 selects {v}
    te = ("slack", (0, 1))
    m = frozenset({frozenset({te, ("pv", 1)})})
    assert reconstruct_witness(plan, m) == {"v"}
    # taking the pattern edge selects the full edge particle
    m2 = frozenset({frozenset({("pv", 0), ("pv", 1)})})
    assert reconstruct_witness(plan, m2) == {"v"}  # heaviest set in G[{u,v}]


def test_combination_claims_exhaustively():
    """Both directions of the matching correspondence, on small cases:
    every independent set maps to a matching bounding its weight, and
    every matching reconstructs to an independent set of at least its
    value."""
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        G, D = random_esd_instance(rng, max_n=9)
        T = frozenset(rng.sample(list(G.labels), min(G.n, 3)))
        profs = particle_profiles(G, D, T, with_witnesses=True)
        tset = frozenset(T)
        tids = sorted(G.ids_of(T))
        conflicts = []
        for v in tids:
            c = 0
            for j, u in enumerate(tids):
                if u in G.adj[v]:
                    c |= 1 << j
            conflicts.append(c)
        for mask in iter_independent_sets(conflicts):
            trace = frozenset(G.label_of(tids[i]) for i in range(len(tids))
                              if (mask >> i) & 1)
            plan = build_combination_plan(
                G, D, trace,
                lambda p: profs[p].value(trace & p.members),
                lambda p: profs[p].witness(trace & p.members),
                terminal_set=tset)
            best = plan.base_weight + max_weight_matching(plan.aux)[1]
            # direction 2: every matching reconstructs soundly (checked
            # inside reconstruct_witness) and never beats the optimum
            edges = list(plan.aux.edges)
            for sub_mask in range(1 << min(len(edges), 6)):
                chosen = [edges[i] for i in range(min(len(edges), 6))
                          if (sub_mask >> i) & 1]
                used = set()
                ok = True
                for e in chosen:
                    u, v = tuple(e)
                    if u in used or v in used:
                        ok = False
                        break
                    used |= {u, v}
                if not ok:
                    continue
                m = frozenset(frozenset(e) for e in chosen)
                wit = reconstruct_witness(plan, m)
                assert G.total_weight(wit) <= best
                checked += 1
            # direction 1: the optimum equals the exhaustive profile cell
            want = brute_force_border(G, T).value(trace)
            assert best == want
    assert checked > 200


def test_line_graph_combination_equals_matching():
    """The canonical strip decomposition of a line graph reduces MWIS on
    L(G) back to maximum-weight matching on G."""
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 7)
        base = random_graph(rng, n, 0.5)
        if base.edge_count() == 0 or base.edge_count() > 12:
            continue
        ew = {frozenset((base.labels[u], base.labels[v])): rng.randint(0, 20)
              for u, v in base.edges_ids()}
        L = line_graph(base, ew)
        # pattern = base graph, each line-graph vertex sits in its edge class
        esets = {}
        for u, v in base.edges_ids():
            lab = tuple(sorted((base.labels[u], base.labels[v]), key=repr))
            esets[(u, v)] = ({lab}, {lab}, {lab})
        D = ExtendedStripDecomposition(range(base.n), base.edges_ids(),
                                       {x: set() for x in range(base.n)}, esets)
        assert not validate_esd(L, D)
        profs = particle_profiles(L, D, set())
        combined = combine_esd(L, set(), D, profs)
        aux = AuxGraph()
        for u, v in base.edges_ids():
            aux.add_edge(u, v, ew[frozenset((base.labels[u], base.labels[v]))])
        assert combined.table[0] == matching_bruteforce(aux)[1]
