import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stripmwis
import stripmwis.border as border
from stripmwis.errors import CapacityError, InputError
from stripmwis.generate import generate_random_instance
from stripmwis.graph import WeightedGraph
from stripmwis.oracle import mwis_bruteforce, verify_solution
from stripmwis.patterns import (contains_biclique_subgraph, find_induced_sttt,
                                witness_violations)
from stripmwis.solver_biclique import (BicliqueSolverConfig, choose_sink_node,
                                       mwis_biclique, solve_biclique)
from stripmwis.trace import BranchRecord
from stripmwis.treedec import TreeDecomposition, build_weissauer

from helpers import (count_calls, cycle_mwis, hub_caterpillar, profile_sanity,
                     union_graph, weighted_cycle, windmill_caterpillar)


def test_config_requires_k_at_least_two():
    with pytest.raises(InputError):
        BicliqueSolverConfig(k=1)


def test_leaf_path_equals_oracle():
    for seed in range(10):
        G = generate_random_instance(25, 4, 2, 200 + seed)
        value, _, trace = mwis_biclique(G, BicliqueSolverConfig(t=2, k=2))
        assert value == mwis_bruteforce(G)[0]
        assert trace.leaf_count == trace.call_count == 1  # 32k^5*ell >> n


def test_choose_sink_single_bag():
    G = hub_caterpillar(random.Random(0), 18, hubs=1, hub_legs=4)
    td = TreeDecomposition({0: G.label_set}, [])
    ctx = choose_sink_node(G, td, G.label_set, 3)
    assert ctx.node == 0 and ctx.components == []


def test_choose_sink_prefers_heavy_side():
    G = WeightedGraph(range(6), [1] * 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    td = TreeDecomposition({0: {0, 1, 2, 3}, 1: {3, 4, 5}}, [(0, 1)])
    ctx = choose_sink_node(G, td, {0, 1, 2}, 3)
    assert ctx.node == 0
    ctx2 = choose_sink_node(G, td, {4, 5}, 3)
    assert ctx2.node == 1


def test_forced_recursion_matches_oracle_on_trees(monkeypatch):
    # the strip decompositions of the branches have edgeless patterns, so
    # their particle profiles go straight into the fold, and no combination
    # plan is built
    plans = count_calls(monkeypatch, border, "build_combination_plan")
    for seed in range(12):
        G = hub_caterpillar(random.Random(seed), 36, hubs=3, hub_legs=6)
        cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=14,
                                   with_witnesses=True)
        value, witness, trace = mwis_biclique(G, cfg)
        assert value == mwis_bruteforce(G)[0]
        assert G.is_independent(witness) and G.total_weight(witness) == value
        assert trace.call_count > 1
    assert plans == []


def test_windmills_exercise_branching():
    saw_nonzero_j = False
    for seed in range(10):
        G = windmill_caterpillar(random.Random(seed), 38, hubs=3)
        assert find_induced_sttt(G, 2) is None
        assert not contains_biclique_subgraph(G, 2)
        cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=14)
        value, _, trace = mwis_biclique(G, cfg)
        assert value == mwis_bruteforce(G)[0]
        if any(isinstance(r, BranchRecord) and r.j_mask for r in trace.records):
            saw_nonzero_j = True
    assert saw_nonzero_j


def test_disjoint_union_additivity():
    rng = random.Random(2)
    a = hub_caterpillar(rng, 18, hubs=2, hub_legs=5)
    b = windmill_caterpillar(rng, 20, hubs=2)
    both = union_graph([a, b])
    cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=14)
    value = mwis_biclique(both, cfg)[0]
    assert value == mwis_bruteforce(a)[0] + mwis_bruteforce(b)[0]


def test_profile_with_terminals_matches_exhaustive():
    rng = random.Random(3)
    for seed in range(8):
        G = hub_caterpillar(random.Random(40 + seed), 30, hubs=2, hub_legs=6)
        T = frozenset(rng.sample(list(G.labels), 4))
        cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=12)
        res = solve_biclique(G, T, cfg)
        assert not res.found_witness
        assert verify_solution(G, T, res.profile) == []
        assert profile_sanity(G, res.profile) == []


def test_profile_terminals_inside_touched_components():
    """Terminals sitting inside components that the removal step touches
    exercise the double-count seam of the final fold; compare whole
    profiles against the exhaustive solver."""
    rng = random.Random(99)
    for seed in range(15):
        G = windmill_caterpillar(random.Random(70 + seed), 34, hubs=3)
        T = frozenset(rng.sample(list(G.labels), 6))
        cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=12,
                                   with_witnesses=True)
        res = solve_biclique(G, T, cfg)
        assert not res.found_witness
        assert verify_solution(G, T, res.profile) == []


def test_all_terminal_call_is_leaf():
    G = hub_caterpillar(random.Random(4), 16, hubs=1)
    cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=4)
    res = solve_biclique(G, frozenset(G.labels[:15]), cfg)
    assert not res.found_witness  # must not loop on a terminal-saturated call


def test_terminal_balancing_rule_engages():
    # above three quarters of the leaf cap the balance set flips to T
    rng = random.Random(21)
    hit = 0
    for seed in range(25):
        G = hub_caterpillar(random.Random(600 + seed), 32, hubs=2, hub_legs=5)
        T = frozenset(rng.sample(list(G.labels), 12))
        cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=14)
        try:
            res = solve_biclique(G, T, cfg)
        except CapacityError:
            continue
        assert not res.found_witness
        from stripmwis.trace import TraceRecord
        first = next((r for r in res.trace.records
                      if isinstance(r, TraceRecord) and not r.leaf), None)
        if first is None or first.u_kind != "T":
            continue
        assert verify_solution(G, T, res.profile) == []
        hit += 1
        if hit >= 2:
            break
    assert hit >= 1, "no run engaged the terminal balance rule"


def test_witness_propagates():
    from stripmwis.generate import generate_subdivided_claw
    g = generate_subdivided_claw(2, 2, 2)
    big = union_graph([g] * 5)
    cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=8)
    res = solve_biclique(big, frozenset(), cfg)
    assert res.found_witness


def test_claw_through_the_high_degree_vertices_is_found():
    # S_{2,2,2} plus two pendant leaves on its centre: the centre is the
    # bag's one high-degree vertex, so every claw meets Q and none is
    # left in G - Q; the search of the whole input still finds it
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (0, 8)]
    G = WeightedGraph(range(9), [1] * 9, edges)
    res = solve_biclique(G, frozenset(), BicliqueSolverConfig(t=2, k=2, leaf_cap_override=8))
    assert res.found_witness
    assert witness_violations(G, res.witness) == []


def test_deterministic_output():
    G = windmill_caterpillar(random.Random(5), 34, hubs=3)
    cfg = BicliqueSolverConfig(t=2, k=2, leaf_cap_override=14, with_witnesses=True)
    runs = [mwis_biclique(G, cfg) for _ in range(3)]
    assert len({r[0] for r in runs}) == 1
    assert len({r[1] for r in runs}) == 1
    assert len({tuple(r[2].lines()) for r in runs}) == 1


@pytest.mark.parametrize("n", [41, 60, 90])
def test_default_leaf_cap_fits_the_oracle_budget(n):
    # 32 * k^5 * ell is far above the 40-vertex oracle budget
    G = weighted_cycle(random.Random(n), n)
    value, _, trace = mwis_biclique(G, BicliqueSolverConfig(k=3))
    assert value == cycle_mwis(G.weights)
    assert trace.call_count > 1


@pytest.mark.parametrize("n", [60, 90])
@pytest.mark.parametrize("cap", [1, 2])
def test_leaf_caps_below_three_solve_long_cycles(n, cap):
    # with U = T below a cap of 3, a path with a terminal at each end
    # lost two vertices per level and overran the depth cap
    G = weighted_cycle(random.Random(1), n)
    cfg = BicliqueSolverConfig(k=3, leaf_cap_override=cap, with_witnesses=True)
    value, witness, trace = mwis_biclique(G, cfg)
    assert value == cycle_mwis(G.weights) == G.total_weight(witness)
    assert trace.call_count > 1


def test_one_bag_solve_leaves_networkx_unloaded():
    # networkx is loaded only to split a bag; at k = 3 this caterpillar's
    # three hubs fit in one bag
    here = Path(__file__).resolve().parent
    src = str(Path(stripmwis.__file__).resolve().parents[1])
    code = (
        "import random, sys\n"
        "from helpers import hub_caterpillar\n"
        "from stripmwis.solver_biclique import BicliqueSolverConfig, mwis_biclique\n"
        "from stripmwis.treedec import build_weissauer\n"
        "G = hub_caterpillar(random.Random(3), 30, hubs=3, hub_legs=7)\n"
        "assert len(build_weissauer(G, 3).nodes) == 1\n"
        "value, _, trace = mwis_biclique(G, BicliqueSolverConfig(k=3, leaf_cap_override=14))\n"
        "print(trace.call_count > 1, 'networkx' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(here)])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
