import random

import networkx as nx
import pytest

import stripmwis.border as border
from stripmwis.border import (BorderProfile, brute_force_border,
                              build_combination_plan, combine_esd,
                              reconstruct_witness)
from stripmwis.bnb import iter_independent_sets
from stripmwis.errors import CapacityError, ContractViolation, InvariantError
from stripmwis.esd import (FULL_EDGE, ExtendedStripDecomposition, components_esd,
                           particles, validate_esd)
from stripmwis.graph import WeightedGraph
from stripmwis.matching import AuxGraph, matching_bruteforce, max_weight_matching

from helpers import count_calls, line_graph_esd, random_esd_instance, random_graph


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


def test_negative_swap_weight_is_an_invariant_error():
    # a full-edge value below its parts' values makes negative swaps
    G = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    D = ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"u", "v"}, {"u"}, {"v"})})
    with pytest.raises(InvariantError, match="negative auxiliary edge weight"):
        build_combination_plan(G, D, frozenset(),
                               lambda p: 0 if p.kind == FULL_EDGE else 5)


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
            # zero-weight swaps are left out of the auxiliary graph
            assert 0 not in plan.aux.edges.values()
            assert plan.swaps.keys() == plan.aux.edges.keys()
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
        L, D = line_graph_esd(base, ew)
        assert not validate_esd(L, D)
        profs = particle_profiles(L, D, set())
        combined = combine_esd(L, set(), D, profs)
        aux = AuxGraph()
        for u, v in base.edges_ids():
            aux.add_edge(u, v, ew[frozenset((base.labels[u], base.labels[v]))])
        assert combined.table[0] == matching_bruteforce(aux)[1]


def gnm_line_graph(seed, weights):
    """L(R) with its canonical decomposition and 6 terminals, for the
    root graph R = G(12, 18) of `seed` with edge weights from `weights`."""
    rng = random.Random(seed)
    R = nx.gnm_random_graph(12, 18, seed=seed)
    base = WeightedGraph(R.nodes, [1] * 12, R.edges)
    ew = {frozenset(e): rng.choice(weights) for e in R.edges}
    L, D = line_graph_esd(base, ew)
    return L, D, frozenset(rng.sample(list(L.labels), 6))


def test_one_matching_per_distinct_component(monkeypatch):
    """One combine_esd call matches each distinct non-zero component of
    its auxiliary graphs once; the components are found with networkx."""
    for seed in range(4):
        L, D, T = gnm_line_graph(seed, range(0, 21))
        profs = particle_profiles(L, D, T)
        plans = []
        build = border.build_combination_plan

        def keep_plan(*args, **kwargs):
            plans.append(build(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(border, "build_combination_plan", keep_plan)
        calls = count_calls(monkeypatch, border, "max_weight_matching")
        combined = combine_esd(L, T, D, profs)
        monkeypatch.undo()
        distinct = set()
        for plan in plans:
            g = nx.Graph(tuple(k) for k in plan.aux.edges)
            for comp in nx.connected_components(g):
                distinct.add(frozenset((k, w) for k, w in plan.aux.edges.items()
                                       if k <= comp))
        assert len(calls) == len(distinct) > 0
        assert len(calls) < sum(nx.number_connected_components(
            nx.Graph(tuple(k) for k in plan.aux.edges)) for plan in plans)
        assert combined.same_table(brute_force_border(L, T))


def test_witnessed_combination_with_ties_and_zero_weights():
    """Weights from {0, 1, 2} make zero edges and ties; every cell equals
    the exhaustive profile, and every witness is re-checked here."""
    rng = random.Random(31)
    cases = [gnm_line_graph(seed, (0, 1, 2)) for seed in range(3)]
    for _ in range(40):
        G, D = random_esd_instance(rng, max_n=10)
        G = WeightedGraph(G.labels, [rng.choice((0, 1, 2)) for _ in G.labels],
                          [(G.labels[u], G.labels[v]) for u, v in G.edges_ids()])
        cases.append((G, D, frozenset(rng.sample(list(G.labels), min(G.n, 4)))))
    for G, D, T in cases:
        profs = particle_profiles(G, D, T, with_witnesses=True)
        combined = combine_esd(G, T, D, profs, with_witnesses=True)
        assert combined.same_table(brute_force_border(G, T))
        for mask, value in combined.cells():
            wit = combined.witnesses[mask]
            if value is None:
                assert wit is None
                continue
            assert G.is_independent(wit)
            assert G.total_weight(wit) == value
            assert wit & frozenset(combined.terminals) == combined.labels_of(mask)
