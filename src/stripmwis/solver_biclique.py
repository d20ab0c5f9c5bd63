"""Recursive border solver for inputs with no large biclique subgraph.

As in the degree solver, a recursive run first searches its whole input
for an induced S_{t,t,t} and returns the claw if there is one.  Each
non-leaf call builds a tree decomposition with small adhesions and
degree-bounded torsos, picks a bag that is a sink under the orientation
of tree edges toward the heavier side of the balance set U, branches on
the independent subsets J of the bag's few high-degree vertices Q, and
for each branch removes Q and N(J), decomposes the remainder around a
short-path family, recurses separately on the components touched by the
removal and on the particles of the restricted strip decomposition, and
folds everything into the parent profile.  The particle profiles of an
edgeless strip pattern are fold parts as they are; a pattern with edges
is combined by the matching step first.  The fold enumerates the
independent subsets of Y^J, of T cap V(G^J) and of the part terminals
that two parts share or that touch another part's terminals; each other
part terminal is read from its own part through a subset-max table.
"""

from __future__ import annotations

from typing import NamedTuple

from .border import BorderProfile
from .bnb import iter_independent_sets
from .errors import InputError, InvariantError
from .esd import particles, restrict_esd
from .graph import WeightedGraph
from .solver_degree import Recursion, SolveResult, compute_ell, fold, run, unwrap
from .trace import BranchRecord, TraceRecord
from .treedec import (TreeDecomposition, build_weissauer, completion,
                      high_degree_vertices, tree_sides)


class BicliqueSolverConfig:
    # `leaf_cap_override` is not part of the published recursion: at desk
    # scale 32*k^5*ell always exceeds MAX_LEAF_VERTICES, which then sets
    # the leaf cap; an explicit cap below it makes the solver recurse on
    # smaller instances.  Terminal invariants stay at 32*k^5*ell.
    def __init__(self, t: int = 2, k: int = 10, leaf_cap_override: int | None = None,
                 with_witnesses: bool = False):
        if k < 2:
            raise InputError("k must be at least 2")
        self.t = t
        self.k = k
        self.leaf_cap_override = leaf_cap_override
        self.with_witnesses = with_witnesses


class BagContext(NamedTuple):
    """The chosen sink bag with its component structure."""

    node: int
    bag: frozenset
    components: list          # (component labels, neighborhood labels) pairs
    q: tuple                  # high-degree vertices, sorted


def choose_sink_node(Gp: WeightedGraph, td: TreeDecomposition, U, k: int) -> BagContext:
    """Orient every tree edge toward the side holding more of U (ties to
    the smaller node id) and return the context of an outdegree-0 node."""
    uset = frozenset(U)
    outdeg = {n: 0 for n in td.nodes}
    for s, t in td.tree_edges:
        sigma = td.adhesion(s, t)
        side_s, side_t = tree_sides(td, s, t)
        vs = set().union(*(td.bags[x] for x in side_s)) - sigma
        vt = set().union(*(td.bags[x] for x in side_t)) - sigma
        ws, wt = len(vs & uset), len(vt & uset)
        if ws > wt or (ws == wt and s < t):
            outdeg[t] += 1
        else:
            outdeg[s] += 1
    sinks = [n for n in td.nodes if outdeg[n] == 0]
    if not sinks:
        raise InvariantError("tree orientation produced no sink")
    node = min(sinks)
    bag = td.bags[node]
    comps = [(c, Gp.open_neighborhood(c))
             for c in Gp.subgraph(Gp.label_set - bag).components()]
    for c, nc in comps:
        if len(nc) >= k:
            raise InvariantError(
                f"component neighborhood of size {len(nc)} >= k={k}; "
                "tree decomposition violates its adhesion contract")
        if 2 * len(c & uset) > len(uset):
            raise InvariantError("sink bag left a component holding more than half of U")
    q = tuple(high_degree_vertices(completion(Gp, bag, [nc for _, nc in comps]), k))
    if len(q) > k:
        raise InvariantError(f"{len(q)} high-degree bag vertices exceed k={k}")
    return BagContext(node=node, bag=bag, components=comps, q=q)


def classify_components(Gp: WeightedGraph, GJ: WeightedGraph, ctx: BagContext,
                        X, k: int):
    """Dirty and touched components with the interface sets Y^J and Z^J;
    the three growth bounds are asserted."""
    nxj = GJ.closed_neighborhood(X)
    vj = GJ.label_set
    dirty = []
    for idx, (c, nc) in enumerate(ctx.components):
        if nxj & (c | nc):
            dirty.append(idx)
    y = frozenset(nxj & ctx.bag) | frozenset(
        v for idx in dirty for v in ctx.components[idx][1] & vj)
    touched = list(dirty)
    for idx, (c, nc) in enumerate(ctx.components):
        if idx not in dirty and nc & y:
            touched.append(idx)
    touched.sort()
    z = frozenset(GJ.closed_neighborhood(y) & ctx.bag) | frozenset(
        v for idx in touched for v in ctx.components[idx][1] & vj)

    xs = len(X)
    bound1 = (2 * k * (k - 1) + 1) * xs
    if len(nxj & ctx.bag) > bound1:
        raise InvariantError(f"|N[X] cap B| = {len(nxj & ctx.bag)} exceeds {bound1}")
    if len(y) > 4 * k ** 4 * xs:
        raise InvariantError(f"|Y| = {len(y)} exceeds {4 * k ** 4 * xs}")
    if len(z) > 8 * k ** 5 * xs:
        raise InvariantError(f"|Z| = {len(z)} exceeds {8 * k ** 5 * xs}")
    return dirty, touched, y, z


def solve_biclique(G: WeightedGraph, T, cfg: BicliqueSolverConfig | None = None) -> SolveResult:
    return run(_BicliqueSolver(G, cfg or BicliqueSolverConfig()), G, T)


def mwis_biclique(G: WeightedGraph, cfg: BicliqueSolverConfig | None = None):
    return unwrap(G, solve_biclique(G, frozenset(), cfg))


class _BicliqueSolver(Recursion):
    def __init__(self, G: WeightedGraph, cfg: BicliqueSolverConfig):
        self.k = cfg.k
        super().__init__(G, cfg, 32 * cfg.k ** 5 * compute_ell(G.n, cfg.t))
        # At least 2: leaf caps 1 and 2 would give 0 or 1, and then a path
        # with a terminal at each end balances on T at every level, loses
        # two vertices per level and overruns the depth cap.
        self.u_rule_cap = max(2, (3 * self.leaf_cap) // 4)

    def is_leaf(self, Gp: WeightedGraph, T: frozenset) -> bool:
        # A call without (or with a single) nonterminal vertex is a leaf.
        return Gp.n <= self.leaf_cap or len(Gp.label_set - T) <= 1

    def split(self, Gp: WeightedGraph, T: frozenset, depth: int) -> BorderProfile:
        td = build_weissauer(Gp, self.k)
        if len(T) <= self.u_rule_cap:
            U, ukind = Gp.label_set - T, "V"
        else:
            U, ukind = T, "T"
        ctx = choose_sink_node(Gp, td, U, self.k)

        result = BorderProfile.of_terminals(Gp, T, self.cfg.with_witnesses)

        first_branch = True
        for jmask in iter_independent_sets(Gp.conflict_masks(Gp.ids_of(ctx.q))):
            J = frozenset(ctx.q[i] for i in range(len(ctx.q)) if (jmask >> i) & 1)
            self._branch(Gp, T, U, ukind, ctx, J, jmask, depth, result, first_branch)
            first_branch = False
        return result

    def _branch(self, Gp, T, U, ukind, ctx, J, jmask, depth, result, record_call):
        removed = set(ctx.q) | set(Gp.open_neighborhood(J))
        vj = Gp.label_set - removed
        GJ = Gp.subgraph(vj)
        UJ = frozenset(U) & vj

        outcome = self.decompose(GJ, UJ)
        X = outcome.removed_set()
        D = outcome.esd
        self.check_structure(D, 2 * self.cfg.t)
        if record_call:
            self.trace.add(TraceRecord(depth, Gp.n, len(T), ukind,
                                       len(X), len(particles(D)), False))

        dirty, touched, y, z = classify_components(Gp, GJ, ctx, X, self.k)
        self.trace.add(BranchRecord(jmask, len(dirty), len(touched), len(y), len(z)))

        # Recurse on the touched components with their full interface as terminals.
        comp_profiles = {}
        for idx in touched:
            c, nc = ctx.components[idx]
            gc_labels = (c | nc) & vj
            tc = ((T & c) | nc) & vj
            if not (nc & vj) <= tc:
                raise InvariantError("component interface escaped its terminal set")
            if len(T) <= self.u_rule_cap and len(tc) > len(T) + self.k:
                raise InvariantError(
                    f"|T_C| = {len(tc)} exceeds |T| + k = {len(T) + self.k}")
            gc = Gp.subgraph(gc_labels)
            comp_profiles[idx] = self.solve(gc, tc, depth + 1)

        # The rest of G^J lives inside the strip decomposition.
        gy_labels = vj - y - frozenset(v for idx in touched
                                       for v in ctx.components[idx][0] & vj)
        nxj = GJ.closed_neighborhood(X)
        if gy_labels & nxj:
            raise InvariantError("removed neighborhood leaked into the strip remainder")
        GY = Gp.subgraph(gy_labels)
        DY = restrict_esd(D, GY)
        TY = (T | z) & gy_labels
        for idx in touched:
            nc = ctx.components[idx][1]
            if not (nc & gy_labels) <= TY:
                raise InvariantError("touched interface missing from the strip terminals")

        # Fold into the parent profile: maximize, over independent I in
        # (T cap V(G^J)) u T^Y u Y^J, w(J) + w(I cap Y^J) + f_Y(I cap T^Y)
        # + sum over touched C of (f_C(N[C] cap I) - w(I cap N(C))),
        # into the cell (I u J) cap T.
        weight = {v: Gp.weight_of(v) for v in y}
        for idx in touched:
            for v in ctx.components[idx][1]:
                weight[v] = weight.get(v, 0) - Gp.weight_of(v)
        fold(result, Gp, (T & vj) | TY | y, weight, y,
             self.strip_parts(GY, TY, DY, depth) + [comp_profiles[idx] for idx in touched],
             base=Gp.total_weight(J), base_cell=result.mask_of(J & T), base_witness=J)
