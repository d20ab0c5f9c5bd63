import random
from itertools import combinations

import pytest

from stripmwis.border import (MAX_LEAF_TERMINALS, MAX_LEAF_VERTICES, BorderProfile,
                              brute_force_border)
from stripmwis.decompose import DecomposeOutcome
from stripmwis.errors import CapacityError, InputError, InvariantError
from stripmwis.esd import ExtendedStripDecomposition
from stripmwis.generate import generate_random_instance, generate_subdivided_claw
from stripmwis.graph import WeightedGraph, line_graph
from stripmwis.matching import AuxGraph, max_weight_matching
from stripmwis.oracle import mwis_bruteforce
import stripmwis.bnb as bnb
import stripmwis.border as border
import stripmwis.solver_degree as solver_degree
from stripmwis.solver_biclique import BicliqueSolverConfig, mwis_biclique
from stripmwis.solver_degree import (DegreeSolverConfig, compute_ell, fold, mwis,
                                     solve_degree)
from stripmwis.trace import TraceRecord

from helpers import (count_calls, cycle_mwis, hub_caterpillar, random_graph,
                     random_root_graph, union_graph, weighted_cycle)


def test_compute_ell_examples():
    assert compute_ell(1024, 2, 1) == 464
    assert compute_ell(2, 1, 1) == 51
    assert compute_ell(1024, 2, 0.01) == 5
    assert compute_ell(1, 2, 0.0001) == 1  # floor at one


def test_empty_and_single_vertex():
    assert mwis(WeightedGraph([], [], []), DegreeSolverConfig())[0] == 0
    assert mwis(WeightedGraph(["x"], [7], []), DegreeSolverConfig())[0] == 7


def test_c5_and_weighted_claw():
    c5 = WeightedGraph(range(5), [1] * 5, [(i, (i + 1) % 5) for i in range(5)])
    assert mwis(c5, DegreeSolverConfig(t=2))[0] == 2
    claw = WeightedGraph(range(4), [10, 4, 4, 4], [(0, 1), (0, 2), (0, 3)])
    assert mwis(claw, DegreeSolverConfig(t=2))[0] == 12


def test_default_config_collapses_to_leaf():
    G = generate_random_instance(30, 3, 2, 4)
    value, _, trace = mwis(G, DegreeSolverConfig(t=2))
    assert value == mwis_bruteforce(G)[0]
    assert trace.call_count == 1 and trace.leaf_count == 1


def test_forced_recursion_matches_oracle(monkeypatch):
    # the reference decomposer emits edgeless patterns only: their particle
    # profiles go straight into the fold, and no combination plan is built
    plans = count_calls(monkeypatch, border, "build_combination_plan")
    for seed in range(25):
        G = generate_random_instance(34, 3, 2, seed)
        cfg = DegreeSolverConfig(t=2, leaf_cap_override=12, with_witnesses=True)
        value, witness, trace = mwis(G, cfg)
        assert value == mwis_bruteforce(G)[0]
        assert G.is_independent(witness) and G.total_weight(witness) == value
        assert trace.call_count > 1
        assert trace.max_depth <= 2 * 6  # 2 * ceil(log2 34)
    assert plans == []


@pytest.mark.parametrize("seed", range(4))
def test_patterns_with_edges_go_through_the_combination_step(monkeypatch, seed):
    # No decomposer emits a pattern with edges yet, so the root call gets
    # the canonical decomposition of a line graph L(R): pattern R without
    # its isolated vertices, each vertex of L alone in its edge class and
    # in both end-sets, and no removed paths.
    nx = pytest.importorskip("networkx")
    R = nx.gnm_random_graph(14, 22, seed=seed)
    rng = random.Random(seed)
    ew = {frozenset(e): rng.randint(1, 20) for e in R.edges}
    L = line_graph(WeightedGraph(range(14), [1] * 14, sorted(R.edges)), ew)
    D = ExtendedStripDecomposition(
        [x for x in R if R.degree(x)], R.edges, {},
        {(min(lab), max(lab)): ({lab},) * 3 for lab in L.labels})
    decompose = solver_degree.decompose

    def canonical_at_root(G, U):
        if G is L:
            return DecomposeOutcome(paths=(), esd=D)
        return decompose(G, U)

    monkeypatch.setattr(solver_degree, "decompose", canonical_at_root)
    calls = count_calls(monkeypatch, solver_degree, "combine_esd")
    cfg = DegreeSolverConfig(t=2, leaf_cap_override=4, with_witnesses=True)
    T = frozenset(rng.sample(list(L.labels), 6))
    assert solve_degree(L, T, cfg).profile.same_table(brute_force_border(L, T))
    value, _, _ = mwis(L, cfg)
    assert value == sum(ew[frozenset(e)] for e in nx.max_weight_matching(
        nx.Graph([(u, v, {"weight": ew[frozenset((u, v))]}) for u, v in R.edges])))
    assert calls


def test_profile_with_terminals_matches_exhaustive():
    rng = random.Random(1)
    for seed in range(12):
        G = generate_random_instance(26, 3, 2, 100 + seed)
        T = frozenset(rng.sample(list(G.labels), 4))
        cfg = DegreeSolverConfig(t=2, leaf_cap_override=10)
        res = solve_degree(G, T, cfg)
        assert not res.found_witness
        assert res.profile.same_table(brute_force_border(G, T))
        assert res.profile.sanity_report(G) == []


def test_terminal_invariant_enforced():
    G = generate_random_instance(30, 2, 2, 5)
    assert G.max_degree() <= 2
    cfg = DegreeSolverConfig(t=2, ell_scale=0.001)
    # 4 * Delta^2 * ell <= 16 with ell = 1; an oversized T must trip
    with pytest.raises(InvariantError):
        solve_degree(G, frozenset(list(G.labels)[:17]), cfg)


def test_witness_path_on_claw_containing_graph():
    g = generate_subdivided_claw(2, 2, 2)
    big = union_graph([g] * 5)  # 35 vertices, forces a non-leaf call
    cfg = DegreeSolverConfig(t=2, leaf_cap_override=8)
    res = solve_degree(big, frozenset(), cfg)
    assert res.found_witness
    from stripmwis.patterns import witness_violations
    assert witness_violations(big, res.witness) == []


@pytest.mark.parametrize("solver", ["degree", "biclique"])
@pytest.mark.parametrize("leaf_cap", [None, 12])
def test_claw_search_runs_once_per_solve(monkeypatch, solver, leaf_cap):
    # every decomposed graph is an induced subgraph of the input, so the
    # input is searched once, and not at all when the root is a leaf
    calls = count_calls(monkeypatch, solver_degree, "find_induced_sttt")
    if solver == "degree":
        G = generate_random_instance(34, 3, 2, 0)
        value, _, trace = mwis(G, DegreeSolverConfig(t=2, leaf_cap_override=leaf_cap))
    else:
        G = hub_caterpillar(random.Random(0), 36, hubs=3, hub_legs=6)
        value, _, trace = mwis_biclique(
            G, BicliqueSolverConfig(t=2, k=2, leaf_cap_override=leaf_cap))
    assert value == mwis_bruteforce(G)[0]
    assert (trace.call_count > 1) == (leaf_cap is not None)
    assert len(calls) == (0 if leaf_cap is None else 1)


def test_trace_line_format():
    G = generate_random_instance(30, 3, 2, 6)
    cfg = DegreeSolverConfig(t=2, leaf_cap_override=12)
    _, _, trace = mwis(G, cfg)
    lines = trace.dump().splitlines()
    assert lines and all(l.startswith(("call ", "branch ")) for l in lines)
    first = lines[0]
    for token in ("depth=", "n=", "|T|=", "U=", "|X|=", "particles=", "leaf="):
        assert token in first


def test_line_graph_cross_check():
    rng = random.Random(3)
    for _ in range(15):
        base = random_graph(rng, rng.randint(2, 6), 0.6)
        if not 1 <= base.edge_count() <= 12:
            continue
        ew = {frozenset((base.labels[u], base.labels[v])): rng.randint(1, 20)
              for u, v in base.edges_ids()}
        L = line_graph(base, ew)
        cfg = DegreeSolverConfig(t=1, leaf_cap_override=4)
        out = mwis(L, cfg)
        assert not hasattr(out, "found_witness")
        value = out[0]
        aux = AuxGraph()
        for u, v in base.edges_ids():
            aux.add_edge(u, v, ew[frozenset((base.labels[u], base.labels[v]))])
        assert value == max_weight_matching(aux)[1]


def test_terminal_balancing_rule_engages():
    # a root terminal set above 3 * Delta^2 * ell flips the balance set to
    # T; the profile must still match the exhaustive solver exactly
    rng = random.Random(17)
    hit = 0
    for seed in range(40):
        G = generate_random_instance(36, 2, 2, 300 + seed)
        if G.max_degree() != 2 or G.n <= 16:
            continue
        T = frozenset(rng.sample(list(G.labels), 13))
        cfg = DegreeSolverConfig(t=2, ell_scale=0.003)  # ell=1, caps 12/16
        try:
            res = solve_degree(G, T, cfg)
        except CapacityError:
            continue
        assert not res.found_witness
        first = next(r for r in res.trace.records if isinstance(r, TraceRecord))
        if first.u_kind != "T":
            continue
        assert res.profile.same_table(brute_force_border(G, T))
        hit += 1
        if hit >= 3:
            break
    assert hit >= 1, "no run engaged the terminal balance rule"


def test_deterministic_output():
    G = generate_random_instance(32, 3, 2, 7)
    cfg = DegreeSolverConfig(t=2, leaf_cap_override=12, with_witnesses=True)
    runs = [mwis(G, cfg) for _ in range(3)]
    assert len({r[0] for r in runs}) == 1
    assert len({r[1] for r in runs}) == 1
    assert len({tuple(r[2].lines()) for r in runs}) == 1


@pytest.mark.parametrize("n", [41, 60, 90])
def test_default_leaf_cap_fits_the_oracle_budget(n):
    # the theoretical leaf cap 4 * Delta^2 * ell is far above the
    # 40-vertex oracle budget; the default config must still recurse
    G = weighted_cycle(random.Random(n), n)
    value, _, trace = mwis(G)
    assert value == cycle_mwis(G.weights)
    assert trace.call_count > 1


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("solve, config", [(mwis, DegreeSolverConfig),
                                           (mwis_biclique, BicliqueSolverConfig)])
def test_leaf_cap_below_one_is_an_input_error(solve, config, cap):
    # with no vertex a leaf the recursion could never end
    G = weighted_cycle(random.Random(1), 60)
    with pytest.raises(InputError, match="leaf cap must be at least 1"):
        solve(G, config(leaf_cap_override=cap))


def test_default_config_on_a_line_graph_matches_matching():
    nx = pytest.importorskip("networkx")
    for seed in (3, 4):
        rng = random.Random(seed)
        edges = set()
        while len(edges) < 50:
            u, v = rng.sample(range(42), 2)
            edges.add((min(u, v), max(u, v)))
        root = WeightedGraph(range(42), [1] * 42, sorted(edges))
        ew = {frozenset(e): rng.randint(1, 20) for e in edges}
        L = line_graph(root, ew)
        assert L.n > 40
        value, _, trace = mwis(L)
        R = nx.Graph()
        R.add_weighted_edges_from((u, v, ew[frozenset((u, v))]) for u, v in edges)
        assert value == sum(R[u][v]["weight"] for u, v in nx.max_weight_matching(R))
        assert trace.call_count > 1


def test_leaf_with_too_many_terminals_is_split():
    # At 66 root edges (structure seed 11) a call on at most 40 vertices
    # gets 21 terminals, one more than the brute-force border takes; as a
    # leaf it stopped the solve with a CapacityError.
    nx = pytest.importorskip("networkx")
    root = random_root_graph(random.Random(11), 66)
    edges = [(root.label_of(u), root.label_of(v)) for u, v in root.edges_ids()]
    wr = random.Random(1)
    ew = {frozenset(e): wr.randint(1, 20) for e in edges}
    L = line_graph(root, ew)
    value, _, trace = mwis(L, DegreeSolverConfig(with_witnesses=True))
    R = nx.Graph()
    R.add_weighted_edges_from((u, v, ew[frozenset((u, v))]) for u, v in edges)
    assert value == sum(R[u][v]["weight"] for u, v in nx.max_weight_matching(R))
    calls = [r for r in trace.records if isinstance(r, TraceRecord)]
    assert any(not r.leaf and r.n <= MAX_LEAF_VERTICES and r.terminals > MAX_LEAF_TERMINALS
               for r in calls)
    assert all(r.terminals <= MAX_LEAF_TERMINALS for r in calls if r.leaf)


def _check_cell_witnesses(G, prof):
    tset = set(prof.terminals)
    for mask, val in prof.cells():
        if val is None:
            continue
        wit = prof.witnesses[mask]
        assert G.is_independent(wit) and G.total_weight(wit) == val
        assert wit & tset == prof.labels_of(mask)


def _ordered(G, labels):
    return tuple(G.label_of(i) for i in sorted(G.ids_of(labels)))


def test_fold_degree_shape_matches_exhaustive():
    # remove N[X]; the one part is the exhaustive profile of the rest on T*
    rng = random.Random(8)
    for _ in range(12):
        G = random_graph(rng, 13, 0.3)
        T = frozenset(rng.sample(list(G.labels), 4))
        closed = G.closed_neighborhood(rng.sample(list(G.labels), 2))
        rest = G.label_set - closed
        Tstar = (T & rest) | G.open_neighborhood(closed)
        fstar = brute_force_border(G.subgraph(rest), Tstar, with_witnesses=True)
        result = BorderProfile(_ordered(G, T), with_witnesses=True)
        fold(result, G, Tstar | closed, {v: G.weight_of(v) for v in closed}, closed,
             [fstar])
        assert result.same_table(brute_force_border(G, T))
        _check_cell_witnesses(G, result)


def test_fold_biclique_shape_matches_exhaustive():
    # a base set J with N(J) removed; the rest splits at S = N(C) into a
    # component part on C u S, a kept set Y and a part on the remainder
    # R u S; S is in two parts, so its weight is taken off once
    rng = random.Random(9)
    checked = 0
    for _ in range(20):
        G = random_graph(rng, 15, 0.25)
        T = frozenset(rng.sample(list(G.labels), 5))
        J = frozenset(rng.sample(list(G.labels), 1))
        vj = G.label_set - J - G.open_neighborhood(J)
        C = frozenset(rng.sample(sorted(vj), min(3, len(vj))))
        S = (G.open_neighborhood(C) & vj) - C
        R = vj - C - S
        Y = frozenset(rng.sample(sorted(R), min(2, len(R))))
        R -= Y
        TR = (T & R) | S | (G.open_neighborhood(Y) & R)
        fr = brute_force_border(G.subgraph(R | S), TR, with_witnesses=True)
        fc = brute_force_border(G.subgraph(C | S), (T & C) | S, with_witnesses=True)
        weight = {v: G.weight_of(v) for v in Y} | {v: -G.weight_of(v) for v in S}
        result = BorderProfile(_ordered(G, T), with_witnesses=True)
        fold(result, G, (T & vj) | TR | Y, weight, Y, [fr, fc],
             base=G.total_weight(J), base_cell=result.mask_of(J & T), base_witness=J)

        # the best independent set containing J, cell by cell
        rest = brute_force_border(G.subgraph(vj), T & vj)
        for mask, val in result.cells():
            cell = result.labels_of(mask)
            want = None
            if cell & J == J & T and cell - J <= vj:
                want = rest.value(cell - J)
                want = None if want is None else want + G.total_weight(J)
            assert val == want
            if val is not None:
                assert J <= result.witnesses[mask]
        _check_cell_witnesses(G, result)
        checked += bool(S) and bool(Y)
    assert checked >= 5


def _reference_fold(G, universe, weight, T, parts):
    """The fold by enumeration of every independent subset of `universe`:
    the best value of each cell, keyed by its label set."""
    best = {}
    for r in range(len(universe) + 1):
        for I in map(frozenset, combinations(sorted(universe), r)):
            if not G.is_independent(I):
                continue
            value = sum(weight.get(v, 0) for v in I)
            value += sum(prof.value(I & set(prof.terminals)) for prof in parts)
            if I & T not in best or value > best[I & T]:
                best[I & T] = value
    return best


def _fold_case(rng, signed, shared=False):
    # Two parts on P1, P2 whose terminals hold every vertex with a neighbor
    # outside the part, so each part's graph meets the universe only in its
    # terminals; the rest of the universe is in T or only weighted.  With
    # `shared`, one more vertex s lies in both parts as a terminal of each,
    # and weight -w(s) takes off its second count.  The last item returned
    # is the set the fold must enumerate: every terminal and every vertex
    # of positive weight, except the private coordinates.
    G = random_graph(rng, 13, 0.3)
    P1 = frozenset(rng.sample(range(13), 4))
    P2 = frozenset(rng.sample(sorted(G.label_set - P1), 3))
    S = frozenset(rng.sample(sorted(G.label_set - P1 - P2), 1)) if shared else frozenset()
    parts, owners = [], {}
    for P in (P1 | S, P2 | S):
        TP = (P & G.open_neighborhood(G.label_set - P)) | {rng.choice(sorted(P))} | S
        parts.append(brute_force_border(G.subgraph(P), TP, with_witnesses=True))
        for v in TP:
            owners.setdefault(v, set()).add(len(parts))
    universe = (G.label_set - P1 - P2) | owners.keys()
    T = frozenset(rng.sample(sorted(universe), 3))
    rest = universe - owners.keys()
    if signed:
        weight = {v: rng.randint(-6, 10) for v in rest}
        keep = frozenset(v for v in rest if v in T or rng.random() < 0.7)
    else:
        weight = {v: G.weight_of(v) for v in rest}
        keep = rest
    weight |= {v: -G.weight_of(v) for v in S}

    def private(v):
        others = set().union(*(owners.get(u, ()) for u in G.neighbors_labels(v))) - owners[v]
        return len(owners[v]) == 1 and v not in T and not weight.get(v) and not others

    enumerated = {v for v in owners if not private(v)} | T \
        | {v for v in rest if weight[v] > 0}
    return G, universe, weight, keep, T, parts, enumerated


def _check_fold_against_reference(rng, signed, shared):
    for _ in range(15):
        G, universe, weight, keep, T, parts, _ = _fold_case(rng, signed, shared)
        result = BorderProfile(_ordered(G, T), with_witnesses=True)
        fold(result, G, universe, weight, keep, parts)
        want = _reference_fold(G, universe, weight, T, parts)
        assert [want.get(result.labels_of(m)) for m in range(len(result.table))] \
            == result.table
        if not signed:
            _check_cell_witnesses(G, result)
            continue
        dropped = universe - keep - set().union(*(p.terminals for p in parts))
        for mask, val in result.cells():
            wit = result.witnesses[mask]
            if val is not None:
                assert G.is_independent(wit) and wit & T == result.labels_of(mask)
                assert not wit & dropped


@pytest.mark.parametrize("signed", [False, True])
def test_fold_matches_full_enumeration(signed):
    # signed weights and a partial keep exercise the vertices left out for
    # weight <= 0; with graph weights every cell witness must weigh its value
    _check_fold_against_reference(random.Random(10 + signed), signed, shared=False)


@pytest.mark.parametrize("signed", [False, True])
def test_fold_with_a_terminal_of_two_parts_matches_full_enumeration(signed):
    _check_fold_against_reference(random.Random(13 + signed), signed, shared=True)


def test_fold_enumerates_no_private_coordinate(monkeypatch):
    # the subsets yielded to the fold are the independent subsets of the
    # terminals and positive-weight vertices that are no private coordinate
    yielded = []
    iter_sets = solver_degree.iter_independent_sets

    def counting(conflicts):
        for mask in iter_sets(conflicts):
            yielded.append(mask)
            yield mask

    monkeypatch.setattr(solver_degree, "iter_independent_sets", counting)
    rng = random.Random(12)
    privates = 0
    for shared in [False] * 10 + [True] * 10:
        G, universe, weight, keep, T, parts, enumerated = _fold_case(rng, False, shared)
        yielded.clear()
        fold(BorderProfile(_ordered(G, T)), G, universe, weight, keep, parts)
        want = sum(G.is_independent(I) for r in range(len(enumerated) + 1)
                   for I in combinations(sorted(enumerated), r))
        assert len(yielded) == want
        privates += len(set().union(*(p.terminals for p in parts)) - enumerated)
    assert privates > 0


def test_fold_makes_no_branch_and_bound_call(monkeypatch):
    # each enumerated subset reads the part tables; nothing is left for a
    # branch and bound, through bnb or a name imported from it
    rng = random.Random(14)
    cases = [_fold_case(rng, signed, shared) for signed in (False, True)
             for shared in (False, True)]
    calls = count_calls(monkeypatch, bnb, "max_weight_set")
    monkeypatch.setattr(solver_degree, "max_weight_set", bnb.max_weight_set, raising=False)
    for G, universe, weight, keep, T, parts, _ in cases:
        fold(BorderProfile(_ordered(G, T), with_witnesses=True), G, universe, weight,
             keep, parts)
    assert calls == []
