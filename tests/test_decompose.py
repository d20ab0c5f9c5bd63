import math
import random
import re
import sys

import networkx as nx
import pytest

from stripmwis.decompose import (DecomposeOutcome, decompose, outcome_from_text,
                                 outcome_to_text, path_count_cap, validate_outcome)
from stripmwis.errors import CapacityError
from stripmwis.esd import esd_to_text, particles
from stripmwis.generate import generate_random_instance
from stripmwis.graph import WeightedGraph, line_graph

from helpers import count_calls, random_root_graph, reference_decompose

# The package's `decompose` attribute is the function, so the module
# comes from sys.modules.
decompose_module = sys.modules["stripmwis.decompose"]


def path(n):
    return WeightedGraph(range(1, n + 1), [1] * n, [(i, i + 1) for i in range(1, n)])


def cycle(n, k=1):
    """The k-th power of the cycle on 0..n-1: i ~ j iff their cyclic
    distance is at most k."""
    return WeightedGraph(range(n), [1] * n,
                         [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)])


def test_balanced_components_need_no_removal():
    G = WeightedGraph(range(6), [1] * 6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    out = decompose(G, G.label_set)
    assert out.paths == ()
    assert validate_outcome(G, G.label_set, 2, out) == []
    assert len(out.esd.pattern_vertices) == 2


def test_p9_splits_with_one_vertex():
    G = path(9)
    out = decompose(G, G.label_set)
    assert len(out.paths) == 1 and len(out.paths[0]) == 1
    assert validate_outcome(G, G.label_set, 2, out) == []
    cap = math.ceil(G.n / 2)
    for p in particles(out.esd):
        assert len(p.members & G.label_set) <= cap


def test_long_cycle_needs_two_removals():
    G = cycle(20)
    out = decompose(G, G.label_set)
    assert sum(len(p) for p in out.paths) == 2
    assert validate_outcome(G, G.label_set, 2, out) == []


def test_bounded_degree_two_instances_always_succeed():
    rng = random.Random(3)
    for seed in range(15):
        G = generate_random_instance(rng.randint(5, 30), 2, 1, seed)
        out = decompose(G, G.label_set)
        assert validate_outcome(G, G.label_set, 1, out) == []
        assert sum(len(p) for p in out.paths) <= 2 * len(G.components())


def test_balance_respects_u_not_just_v():
    # all the U-mass sits on one side; splitting must balance U
    G = path(12)
    U = {1, 2, 3, 4}
    out = decompose(G, U)
    assert validate_outcome(G, U, 2, out) == []


def test_validator_flags_violations():
    G = path(9)
    out = decompose(G, G.label_set)
    # balance violation: pretend U is concentrated inside one particle
    big = max(particles(out.esd), key=lambda p: len(p.members))
    report = validate_outcome(G, big.members, 2, out)
    assert any("holds" in item for item in report)
    # path length violation
    bad = DecomposeOutcome(paths=((1, 2, 3, 4, 5),), esd=out.esd)
    report2 = validate_outcome(G, G.label_set, 2, bad)
    assert any("vertices" in item for item in report2)


def test_path_count_cap_formula():
    assert path_count_cap(1) == 6
    assert path_count_cap(1024) == 116
    assert path_count_cap(2) == 17


def test_budget_exhaustion_raises_capacity(monkeypatch):
    # a clique cannot be split into light components by removing nothing
    monkeypatch.setattr(decompose_module, "MAX_UNION_SIZE", 0)
    K = WeightedGraph(range(8), [1] * 8,
                      [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(CapacityError, match=r"^decompose: .*MAX_UNION_SIZE=0"):
        decompose(K, K.label_set)


def test_deterministic():
    G = generate_random_instance(24, 3, 2, 9)
    a = decompose(G, G.label_set)
    b = decompose(G, G.label_set)
    assert a.paths == b.paths
    assert a.paths and all(len(p) == 1 for p in a.paths)
    assert esd_to_text(a.esd) == esd_to_text(b.esd)


def test_removed_set_is_returned_as_one_vertex_paths():
    # the first balanced X is the edge 01; it comes back as two one-vertex
    # paths, a family the contract allows as well as the path (0, 1)
    G = WeightedGraph(range(8), [1] * 8, [(0, 1), (0, 7), (1, 2), (2, 5), (3, 6),
                                          (3, 7), (4, 5), (4, 6)])
    out = decompose(G, G.label_set)
    assert out.paths == ((0,), (1,))
    assert validate_outcome(G, G.label_set, 2, out) == []


def test_outcome_text_round_trip():
    G = path(9)
    out = decompose(G, G.label_set)
    text = outcome_to_text(out)
    back = outcome_from_text(text)
    assert back.paths == out.paths
    assert validate_outcome(G, G.label_set, 2, back) == []


def test_empty_graph():
    G = WeightedGraph([], [], [])
    out = decompose(G, set())
    assert out.paths == ()
    assert validate_outcome(G, set(), 2, out) == []


def _corpus(rng):
    """Random gnm graphs, cycles, paths, 3-regular graphs and line graphs,
    each with U = V and with a random U."""
    graphs = []
    for _ in range(80):
        n = rng.randint(4, 24)
        m = rng.randint(n // 2, 3 * n)
        g = nx.gnm_random_graph(n, m, seed=rng.randrange(10 ** 6))
        graphs.append(WeightedGraph(range(n), [1] * n, g.edges()))
        n = rng.randint(3, 40)
        graphs.append(WeightedGraph(range(n), [1] * n, [(i, (i + 1) % n) for i in range(n)]))
        n = rng.randint(1, 40)
        graphs.append(WeightedGraph(range(n), [1] * n, [(i, i + 1) for i in range(n - 1)]))
        n = 2 * rng.randint(2, 12)
        g = nx.random_regular_graph(3, n, seed=rng.randrange(10 ** 6))
        graphs.append(WeightedGraph(range(n), [1] * n, g.edges()))
        graphs.append(line_graph(random_root_graph(rng, rng.randint(4, 24))))
    for G in graphs:
        yield G, G.label_set
        yield G, frozenset(v for v in G.labels if rng.random() < 0.4)
    # cycle powers from their own generator, so the cases above stay as drawn
    rng = random.Random(rng.random())
    for _ in range(40):
        G = cycle(rng.randint(6, 40), rng.choice((2, 3)))
        yield G, G.label_set
        yield G, frozenset(v for v in G.labels if rng.random() < 0.4)


def _result(G, U, search):
    try:
        return outcome_to_text(search(G, U))
    except CapacityError as exc:
        return re.search(r"MAX_[A-Z_]+", str(exc)).group()


@pytest.mark.parametrize("union_size, candidates", [(4, 400_000), (1, 400_000), (4, 30)])
def test_decompose_matches_the_full_lex_scan(monkeypatch, union_size, candidates):
    # Skipped candidates count against MAX_CANDIDATES, so the budgets
    # stop both searches at the same candidate.
    monkeypatch.setattr(decompose_module, "MAX_UNION_SIZE", union_size)
    monkeypatch.setattr(decompose_module, "MAX_CANDIDATES", candidates)
    stopped = 0
    for G, U in _corpus(random.Random(union_size * 7 + candidates)):
        want = _result(G, U, reference_decompose)
        assert _result(G, U, decompose) == want
        stopped += want.startswith("MAX_")
    # the lowered budgets must stop some searches, or they check nothing
    assert (stopped > 0) == ((union_size, candidates) != (4, 400_000))


@pytest.mark.parametrize("kind, most", [("cycle", 10), ("path", 5), ("cycle-square", 10)])
def test_heavy_set_skips_most_component_searches(monkeypatch, kind, most):
    # One component search per candidate would be 898 on the 600-cycle,
    # whose first balanced X is (0, 297), and 300 on the 600-path.  Heavy
    # sets grown from the highest id, which on a cycle touches id 0, take
    # 156 searches on the cycle and 82 on the square of the 300-cycle.
    G, paths = {"cycle": (cycle(600), ((0,), (297,))),
                "path": (WeightedGraph(range(600), [1] * 600,
                                       [(i, i + 1) for i in range(599)]), ((298,),)),
                "cycle-square": (cycle(300, 2), ((0,), (145,)))}[kind]
    calls = count_calls(monkeypatch, decompose_module, "light_components")
    out = decompose(G, G.label_set)
    assert out.paths == paths
    assert len(calls) <= most
