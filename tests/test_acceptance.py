"""Acceptance suite.

Every criterion prints one PASS/FAIL line (run with `pytest -s` to see
them, or read the captured output).  The corpora are seed-deterministic;
instance counts and tolerances are fixed here, not configurable.
"""

import math
import random
import time

import pytest

from stripmwis.border import brute_force_border, combine_esd
from stripmwis.decompose import decompose, validate_outcome
from stripmwis.errors import CapacityError
from stripmwis.esd import (check_pattern_degree, components_esd, occurrence_bound,
                           particles, validate_esd)
from stripmwis.generate import generate_random_instance
from stripmwis.graph import WeightedGraph, line_graph
from stripmwis.matching import AuxGraph, matching_bruteforce, max_weight_matching
from stripmwis.oracle import mwis_bruteforce
from stripmwis.patterns import contains_biclique_subgraph, find_induced_sttt
from stripmwis.solver_biclique import BicliqueSolverConfig, mwis_biclique
from stripmwis.solver_degree import (DegreeSolverConfig, compute_ell, mwis,
                                     solve_degree)
from stripmwis.trace import TraceRecord

from helpers import (hub_caterpillar, random_esd_instance, random_graph,
                     union_graph, windmill_caterpillar)

ELL_SCALE = 0.003  # makes ell = 1 for n <= 40, t = 2 (leaf cap 4 * Delta^2)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


# -- criterion 3 / 4 corpora (shared with 6 and 7) -----------------------------

@pytest.fixture(scope="module")
def degree_corpus():
    """200 claw-subdivision-free instances solved with a leaf cap strictly
    below n, paired with solver results and oracle values."""
    runs = []
    rejected = 0
    seed = 0
    while len(runs) < 200 and seed < 1200:
        seed += 1
        if seed % 4 == 0:
            n = 17 + (seed * 7) % 24            # degree-2 family
            G = generate_random_instance(n, 2, 2, seed)
        else:
            n = 37 + seed % 4                    # degree-3 family
            G = generate_random_instance(n, 3, 2, seed)
        delta = max(1, G.max_degree())
        ell = compute_ell(G.n, 2, ELL_SCALE)
        if 4 * delta ** 2 * ell >= G.n:
            rejected += 1
            continue
        cfg = DegreeSolverConfig(t=2, ell_scale=ELL_SCALE, with_witnesses=True)
        try:
            value, witness, trace = mwis(G, cfg)
        except CapacityError:
            rejected += 1
            continue
        oracle, _ = mwis_bruteforce(G)
        runs.append((G, value, witness, trace, oracle))
    assert len(runs) == 200, f"only {len(runs)} usable instances"
    assert rejected <= 300, f"too many rejected instances ({rejected})"
    return runs


@pytest.fixture(scope="module")
def biclique_corpus():
    """100 claw-subdivision-free, biclique-subgraph-free instances run
    through the tree-decomposition recursion with a forced leaf cap."""
    runs = []
    capacity = 0
    built = 0
    seed = 0
    while built < 100 and seed < 600:
        seed += 1
        rng = random.Random(10_000 + seed)
        kind = seed % 3
        if kind == 0:
            G = windmill_caterpillar(rng, 34 + seed % 7, hubs=2 + seed % 3)
        elif kind == 1:
            G = hub_caterpillar(rng, 34 + seed % 7, hubs=2 + seed % 3, hub_legs=6)
        else:
            G = union_graph([windmill_caterpillar(rng, 20, hubs=2),
                             hub_caterpillar(rng, 16, hubs=1, hub_legs=5)])
        if find_induced_sttt(G, 2) is not None or contains_biclique_subgraph(G, 2):
            continue
        built += 1
        result = None
        for k in (2, 3):
            cfg = BicliqueSolverConfig(t=2, k=k, leaf_cap_override=14,
                                       with_witnesses=True)
            try:
                result = mwis_biclique(G, cfg)
                break
            except CapacityError:
                continue
        if result is None:
            capacity += 1
            runs.append((G, None, None, None, mwis_bruteforce(G)[0]))
            continue
        value, witness, trace = result
        runs.append((G, value, witness, trace, mwis_bruteforce(G)[0]))
    assert built == 100, f"only {built} instances built"
    return runs, capacity


def test_criterion_1_combination_oracle_equivalence():
    start = time.time()
    rng = random.Random(20240601)
    cases = 0
    fixtures = 0
    while cases < 500:
        G, D = random_esd_instance(rng, max_n=14)
        T = frozenset(rng.sample(list(G.labels), min(G.n, rng.randint(0, 5))))
        profs = {p: brute_force_border(G.subgraph(p.members), T & p.members,
                                       with_witnesses=True)
                 for p in particles(D)}
        combined = combine_esd(G, T, D, profs, with_witnesses=True)
        want = brute_force_border(G, T)
        if not combined.same_table(want):
            _report(1, "combination-step oracle equivalence", False,
                    f"mismatch after {cases} cases")
        assert combined.sanity_report(G) == []
        cases += 1
    # hand-built fixtures ride along
    for G, D in _hand_fixtures():
        profs = {p: brute_force_border(G.subgraph(p.members), frozenset())
                 for p in particles(D)}
        combined = combine_esd(G, frozenset(), D, profs)
        assert combined.table[0] == brute_force_border(G, frozenset()).table[0]
        fixtures += 1
    _report(1, "combination-step oracle equivalence", True,
            f"({cases} random + {fixtures} fixtures, {time.time() - start:.1f}s)")


def _hand_fixtures():
    from stripmwis.esd import ExtendedStripDecomposition
    G1 = WeightedGraph(range(6), [3, 1, 4, 1, 5, 9], [(0, 1), (1, 2), (3, 4)])
    yield G1, components_esd([G1.label_set])
    G2 = WeightedGraph(["u", "v"], [2, 3], [("u", "v")])
    yield G2, ExtendedStripDecomposition(
        (0, 1), [(0, 1)], {0: set(), 1: set()},
        {(0, 1): ({"u", "v"}, {"u"}, {"v"})})
    G3 = WeightedGraph(["w"], [7], [])
    yield G3, ExtendedStripDecomposition(
        (0, 1, 2), [(0, 1), (0, 2), (1, 2)],
        {0: set(), 1: set(), 2: set()},
        {(0, 1): (set(), set(), set()), (0, 2): (set(), set(), set()),
         (1, 2): (set(), set(), set())},
        {(0, 1, 2): {"w"}})


def test_criterion_2_matching_oracle_equivalence():
    start = time.time()
    rng = random.Random(77001)
    for case in range(1000):
        n = rng.randint(0, 10)
        aux = AuxGraph()
        for u in range(n):
            aux.add_node(u)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < rng.uniform(0.15, 0.7):
                    aux.add_edge(u, v, rng.randint(0, 20))
        _, got = max_weight_matching(aux)
        _, want = matching_bruteforce(aux)
        if got != want:
            _report(2, "matching oracle equivalence", False, f"case {case}")
    _report(2, "matching oracle equivalence", True,
            f"(1000 cases, {time.time() - start:.1f}s)")


def test_criterion_3_degree_solver_end_to_end(degree_corpus):
    start = time.time()
    wrong = [i for i, (G, v, w, tr, oracle) in enumerate(degree_corpus)
             if v != oracle]
    recursed = sum(1 for (G, v, w, tr, oracle) in degree_corpus
                   if any(isinstance(r, TraceRecord) and not r.leaf
                          for r in tr.records))
    ok = not wrong and recursed >= 0.8 * len(degree_corpus)
    _report(3, "degree recursion vs oracle", ok,
            f"(200 instances, {recursed} recursed, wrong={len(wrong)}, "
            f"{time.time() - start:.1f}s)")


def test_criterion_4_biclique_solver_end_to_end(biclique_corpus):
    start = time.time()
    runs, capacity = biclique_corpus
    completed = [(G, v, w, tr, o) for (G, v, w, tr, o) in runs if v is not None]
    wrong = [1 for (G, v, w, tr, o) in completed if v != o]
    recursed = sum(1 for (G, v, w, tr, o) in completed
                   if any(isinstance(r, TraceRecord) and not r.leaf
                          for r in tr.records))
    ok = (not wrong) and capacity <= 10 and recursed >= 0.8 * len(completed)
    _report(4, "biclique recursion vs oracle", ok,
            f"(100 instances, {len(completed)} completed, capacity={capacity}, "
            f"{recursed} recursed, wrong={len(wrong)}, {time.time() - start:.1f}s)")


def test_criterion_5_line_graph_cross_check():
    start = time.time()
    rng = random.Random(55005)
    done = 0
    while done < 100:
        base = random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.8))
        if not 1 <= base.edge_count() <= 12:
            continue
        ew = {frozenset((base.labels[u], base.labels[v])): rng.randint(1, 20)
              for u, v in base.edges_ids()}
        L = line_graph(base, ew)
        cfg = DegreeSolverConfig(t=1, leaf_cap_override=4)
        out = mwis(L, cfg)
        assert isinstance(out, tuple), "line graphs contain no claw for t=1"
        value = out[0]
        aux = AuxGraph()
        for u, v in base.edges_ids():
            aux.add_edge(u, v, ew[frozenset((base.labels[u], base.labels[v]))])
        want = max_weight_matching(aux)[1]
        if value != want:
            _report(5, "line-graph matching cross-check", False,
                    f"{value} != {want}")
        done += 1
    _report(5, "line-graph matching cross-check", True,
            f"(100 cases, {time.time() - start:.1f}s)")


def test_criterion_6_structural_invariants(degree_corpus, biclique_corpus):
    """The growth bounds, pattern-degree and occurrence bounds, terminal
    caps, and non-negative auxiliary weights are hard assertions inside
    the solvers and the combination step, so criteria 3 and 4 finishing
    without InvariantError already covers them; here the trace-level
    depth bound and the decomposition checks are verified explicitly."""
    start = time.time()
    depth_ok = True
    for (G, v, w, tr, o) in degree_corpus + biclique_corpus[0]:
        if tr is None:
            continue
        cap = max(1, 2 * math.ceil(math.log2(max(G.n, 2))))
        if tr.max_depth > cap:
            depth_ok = False
    checks = 0
    for seed in range(30):
        G = generate_random_instance(30 + seed % 8, 3, 2, 5000 + seed)
        out = decompose(G, G.label_set)
        assert validate_outcome(G, G.label_set, 2, out) == []
        D = out.esd
        rest = G.subgraph(G.label_set - G.closed_neighborhood(out.removed_set()))
        assert validate_esd(rest, D, require_rigid=True) == []
        assert check_pattern_degree(D, rest.max_degree() + 2)
        d = D.pattern_max_degree()
        assert occurrence_bound(D) <= max(4, 2 * d + 1)
        total = sum(len(p.members) for p in particles(D))
        assert total <= (2 * max(1, G.max_degree()) + 3) * G.n
        checks += 1
    _report(6, "structural invariants", depth_ok and checks > 0,
            f"(depth bound + {checks} decomposition re-checks, "
            f"{time.time() - start:.1f}s)")


def test_criterion_7_witness_integrity(degree_corpus, biclique_corpus):
    start = time.time()
    bad = 0
    total = 0
    for (G, v, w, tr, o) in degree_corpus + biclique_corpus[0]:
        if v is None:
            continue
        total += 1
        if w is None or not G.is_independent(w) or G.total_weight(w) != v:
            bad += 1
    _report(7, "witness integrity", bad == 0,
            f"({total} witnesses verified, {time.time() - start:.1f}s)")


def test_criterion_8_profile_sanity():
    start = time.time()
    rng = random.Random(88008)
    checked = 0
    for seed in range(20):
        G = generate_random_instance(24, 3, 2, 9000 + seed)
        T = frozenset(rng.sample(list(G.labels), 4))
        cfg = DegreeSolverConfig(t=2, ell_scale=ELL_SCALE, leaf_cap_override=10)
        res = solve_degree(G, T, cfg)
        assert not res.found_witness
        if res.profile.sanity_report(G):
            _report(8, "profile sanity", False, f"instance {seed}")
        if not res.profile.same_table(brute_force_border(G, T)):
            _report(8, "profile sanity", False, f"profile mismatch {seed}")
        checked += 1
    # leaf profiles ride along
    for seed in range(20):
        G = random_graph(rng, rng.randint(0, 12), 0.3)
        T = frozenset(rng.sample(list(G.labels), min(G.n, 4)))
        prof = brute_force_border(G, T)
        assert prof.sanity_report(G) == []
        checked += 1
    _report(8, "profile sanity", True, f"({checked} profiles, {time.time() - start:.1f}s)")
