"""Border MWIS: profiles over terminal subsets and the combination step.

A profile for (G, w, T) stores, for every subset S of the terminals T,
the maximum weight of an independent set I with I cap T = S, or the
-infinity sentinel (None) when S is not independent.  Profiles of the
particles of an extended strip decomposition combine into the profile of
the whole graph through a maximum-weight matching in an auxiliary graph
built per terminal subset.  The auxiliary graph holds only the edges of
non-zero weight, and one `combine_esd` call runs the blossom once per
distinct connected component of those graphs.
"""

from __future__ import annotations

from . import bnb
from .errors import CapacityError, ContractViolation, InputError, InvariantError
from .esd import (EDGE_INTERIOR, FULL_EDGE, HALF_EDGE, TRIANGLE, VERTEX,
                  ExtendedStripDecomposition, Particle, particles)
from .graph import WeightedGraph
from .matching import AuxGraph, max_weight_matching

#: Hard cap on the number of terminals a dense profile may carry.
MAX_PROFILE_TERMINALS = 26
#: Vertices and terminals the exhaustive border solver accepts; the
#: solvers' leaves and the oracles run on it.
MAX_LEAF_VERTICES = 40
MAX_LEAF_TERMINALS = 20


class BorderProfile:
    """Dense table from terminal subsets (bitmask over an ordered terminal
    list) to weights; None is the -infinity sentinel.  Witness sets are
    carried optionally."""

    __slots__ = ("terminals", "table", "witnesses", "_bit")

    def __init__(self, terminals, with_witnesses=False):
        self.terminals = tuple(terminals)
        if len(self.terminals) > MAX_PROFILE_TERMINALS:
            raise CapacityError(
                f"border: profile over {len(self.terminals)} terminals exceeds "
                f"MAX_PROFILE_TERMINALS={MAX_PROFILE_TERMINALS}")
        self._bit = {t: i for i, t in enumerate(self.terminals)}
        if len(self._bit) != len(self.terminals):
            raise InputError("duplicate terminals")
        self.table = [None] * (1 << len(self.terminals))
        self.witnesses = [None] * len(self.table) if with_witnesses else None

    def mask_of(self, labels) -> int:
        m = 0
        for l in labels:
            try:
                m |= 1 << self._bit[l]
            except KeyError:
                raise InputError(f"{l!r} is not a terminal of this profile") from None
        return m

    def labels_of(self, mask: int) -> frozenset:
        return frozenset(self.terminals[i] for i in range(len(self.terminals))
                         if (mask >> i) & 1)

    def value(self, labels):
        return self.table[self.mask_of(labels)]

    def witness(self, labels):
        if self.witnesses is None:
            return None
        return self.witnesses[self.mask_of(labels)]

    def update(self, mask: int, weight: int, witness=None):
        """Keep the cell maximum; first writer wins ties."""
        cur = self.table[mask]
        if cur is None or weight > cur:
            self.table[mask] = weight
            if self.witnesses is not None:
                self.witnesses[mask] = witness

    def cells(self):
        return enumerate(self.table)

    def same_table(self, other: "BorderProfile") -> bool:
        if set(self.terminals) != set(other.terminals):
            return False
        return all(v == other.table[other.mask_of(self.labels_of(m))]
                   for m, v in self.cells())

    def sanity_report(self, G: WeightedGraph) -> list:
        """f(S) = -inf exactly for non-independent S; f(S) >= w(S) otherwise."""
        out = []
        for mask, val in self.cells():
            labels = self.labels_of(mask)
            indep = G.is_independent(labels)
            if indep and (val is None or val < G.total_weight(labels)):
                out.append(f"cell {mask:b}: independent subset valued {val}")
            if not indep and val is not None:
                out.append(f"cell {mask:b}: non-independent subset valued {val}")
        return out

    @classmethod
    def of_terminals(cls, G: WeightedGraph, T, with_witnesses=False) -> "BorderProfile":
        """An empty profile over the terminals T of G, ordered by vertex id."""
        return cls((G.label_of(i) for i in sorted(G.ids_of(T))), with_witnesses)


def brute_force_border(G: WeightedGraph, T, with_witnesses=False) -> BorderProfile:
    """Exact profile by exhaustive search; the global oracle and leaf step.

    Enumerates independent terminal subsets and solves the residual MWIS
    for each by branch and bound; non-independent subsets keep -infinity.
    """
    if G.n > MAX_LEAF_VERTICES:
        raise CapacityError(f"border: brute-force border over {G.n} vertices exceeds "
                            f"MAX_LEAF_VERTICES={MAX_LEAF_VERTICES}")
    if len(T) > MAX_LEAF_TERMINALS:
        raise CapacityError(f"border: brute-force border over {len(T)} terminals "
                            f"exceeds MAX_LEAF_TERMINALS={MAX_LEAF_TERMINALS}")
    prof = BorderProfile.of_terminals(G, T, with_witnesses)
    adjm = G.adj_masks
    weights = G.weights
    tids = G.ids_of(prof.terminals)
    tmask = 0
    for i in tids:
        tmask |= 1 << i
    rest = ((1 << G.n) - 1) & ~tmask

    def rec(i, chosen, nbhd, submask, wsum):
        if i == len(tids):
            alive = rest & ~nbhd
            best_w, best_m = bnb.max_weight_set(adjm, weights, alive)
            wit = G.labels_of_mask(chosen | best_m) if with_witnesses else None
            prof.update(submask, wsum + best_w, wit)
            return
        rec(i + 1, chosen, nbhd, submask, wsum)
        v = tids[i]
        b = 1 << v
        if not (nbhd & b):
            rec(i + 1, chosen | b, nbhd | adjm[v], submask | (1 << i), wsum + weights[v])

    rec(0, 0, 0, 0, 0)
    return prof


def _pv(x):
    return ("pv", x)


def _slack(e):
    return ("slack", e)


class CombinationPlan:
    """Everything needed to evaluate and reconstruct one terminal subset:
    the base particle family with its weight, the auxiliary matching
    graph, and the swap of every auxiliary edge.  A swap is the pair
    (add, remove) of particle keys that matching the edge puts into and
    takes out of the base family; the edge weighs the value of add less
    the value of remove."""

    def __init__(self, trace: frozenset, base_particles: set, base_weight: int,
                 aux: AuxGraph, terminal_set: frozenset, swaps: dict | None = None,
                 particle_witnesses: dict | None = None, host: WeightedGraph | None = None):
        self.trace = trace
        self.base_particles = base_particles
        self.base_weight = base_weight
        self.aux = aux
        self.terminal_set = terminal_set
        self.swaps = {} if swaps is None else swaps
        self.particle_witnesses = particle_witnesses
        self.host = host


def _particle_key(p: Particle):
    return (p.kind, p.anchor)


def build_combination_plan(G: WeightedGraph, D: ExtendedStripDecomposition,
                           trace, profile_of, witness_of=None,
                           terminal_set=None) -> CombinationPlan:
    """Construct the particle family and the weighted auxiliary graph for
    one independent terminal subset `trace`.

    `profile_of(particle)` must return the particle's profile value at
    trace cap particle; `witness_of`, when given, returns a witness set
    for that cell.
    """
    trace = frozenset(trace)
    values = {}
    wits = None if witness_of is None else {}
    for p in particles(D):
        val = profile_of(p)
        if val is None:
            raise InvariantError(
                f"particle {p.kind}{p.anchor} has -inf value for an independent trace")
        values[_particle_key(p)] = val
        if wits is not None:
            wits[_particle_key(p)] = witness_of(p)

    # A pattern vertex is forced when the trace meets one of its interface
    # end-sets; independence makes the meeting edge (the enforcer) unique.
    forced = {}
    for x in D.pattern_vertices:
        for y in D.pattern_neighbors(x):
            if trace & D.eta_end(x, y, x):
                e = (min(x, y), max(x, y))
                if x in forced and forced[x] != e:
                    raise InvariantError(
                        f"pattern vertex {x} has two enforcers; trace not independent?")
                forced[x] = e

    chosen = {(VERTEX, (x,)) for x in D.pattern_vertices if x not in forced}
    for tr in D.triangles():
        x, y, z = tr
        if not any(forced.get(a) == forced.get(b) == (a, b)
                   for a, b in ((x, y), (x, z), (y, z))):
            chosen.add((TRIANGLE, tr))
    aux = AuxGraph()
    swaps = {}

    def swap(u, v, add, remove):
        # A maximum-weight matching never needs an edge of weight 0.
        w = sum(map(values.__getitem__, add)) - sum(map(values.__getitem__, remove))
        if w:
            aux.add_edge(u, v, w)
            swaps[frozenset((u, v))] = (add, remove)

    for e in D.pattern_edges:
        # The ends that e forces, and the ends that nothing forces.
        by_e, free = [], []
        for x in e:
            f = forced.get(x)
            if f is None:
                free.append(x)
            elif f == e:
                by_e.append(x)
        if len(by_e) == 2:
            base = (FULL_EDGE, e)
        elif by_e:
            base = (HALF_EDGE, (e, by_e[0]))
        else:
            base = (EDGE_INTERIOR, e)
        chosen.add(base)
        if not by_e:
            for x in free:
                swap(_slack(e), _pv(x), [(HALF_EDGE, (e, x))], [base, (VERTEX, (x,))])
        if free and len(free) + len(by_e) == 2:
            swap(_pv(e[0]), _pv(e[1]), [(FULL_EDGE, e)],
                 [base] + [(VERTEX, (x,)) for x in free]
                 + [(TRIANGLE, tr) for tr in D.triangles() if e[0] in tr and e[1] in tr])

    return CombinationPlan(
        trace=trace, base_particles=chosen, base_weight=sum(values[k] for k in chosen),
        aux=aux, terminal_set=frozenset(terminal_set) if terminal_set is not None else trace,
        swaps=swaps, particle_witnesses=wits, host=G)


def reconstruct_witness(plan: CombinationPlan, matching) -> frozenset:
    """Turn a matching of the auxiliary graph into an independent set.

    Applies the swap of every matched edge to the base particle family
    (the swaps of a matching are disjoint, since two auxiliary edges that
    touch one particle share a node) and unions the particle witnesses;
    the result is re-verified: independent, meeting the terminals exactly
    in the trace, and weighing at least base_weight plus the matching
    weight."""
    if plan.particle_witnesses is None:
        raise ContractViolation("plan was built without particle witnesses")
    pm = set(plan.base_particles)
    for medge in matching:
        add, remove = plan.swaps[frozenset(medge)]
        pm.difference_update(remove)
        pm.update(add)

    out = set()
    for key in pm:
        out |= plan.particle_witnesses[key]
    G = plan.host
    if not G.is_independent(out):
        raise InvariantError("reconstructed set is not independent")
    if out & plan.terminal_set != plan.trace:
        raise InvariantError("reconstructed set does not match the trace on terminals")
    want = plan.base_weight + plan.aux.weight(matching)
    if G.total_weight(out) < want:
        raise InvariantError("reconstructed set lighter than the matching bound")
    return frozenset(out)


def combine_esd(G: WeightedGraph, T, D: ExtendedStripDecomposition,
                particle_profiles, with_witnesses=False) -> BorderProfile:
    """Combine particle profiles into the profile of (G, w, T).

    `particle_profiles` maps every particle of D (keyed by the Particle
    itself) to the profile of (G[A], w, T cap A).  Non-independent
    terminal subsets keep -infinity; for each independent subset the
    auxiliary graph's maximum matching weight added to the base weight
    gives the cell value.  The auxiliary graphs of different subsets
    share most of their components, so each distinct component is
    matched once per call.
    """
    prof = BorderProfile.of_terminals(G, T, with_witnesses)
    tset = frozenset(prof.terminals)
    lookup = {}
    for p in particles(D):
        q = particle_profiles.get(p)
        if q is None:
            raise ContractViolation(f"missing profile for particle {p.kind}{p.anchor}")
        if set(q.terminals) != (p.members & tset):
            raise ContractViolation(
                f"profile terminals for {p.kind}{p.anchor} do not equal T cap A")
        lookup[_particle_key(p)] = (p, q)

    tids = G.ids_of(prof.terminals)
    conflicts = []
    for v in tids:
        c = 0
        for j, u in enumerate(tids):
            if u in G.adj[v]:
                c |= 1 << j
        conflicts.append(c)

    solved = {}   # a component's weighted edges -> its maximum-weight matching
    for mask in bnb.iter_independent_sets(conflicts):
        trace = prof.labels_of(mask)

        def profile_of(p, trace=trace):
            _, q = lookup[_particle_key(p)]
            return q.table[q.mask_of(trace & p.members)]

        witness_of = None
        if with_witnesses:
            def witness_of(p, trace=trace):
                _, q = lookup[_particle_key(p)]
                w = q.witnesses[q.mask_of(trace & p.members)]
                if w is None:
                    raise ContractViolation(
                        f"particle profile for {p.kind}{p.anchor} lacks witnesses")
                return w

        plan = build_combination_plan(G, D, trace, profile_of, witness_of, terminal_set=tset)
        matching, mweight = frozenset(), 0
        for comp in plan.aux.components():
            key = frozenset(comp.edges.items())
            best = solved.get(key)
            if best is None:
                best = solved[key] = max_weight_matching(comp)
            matching |= best[0]
            mweight += best[1]
        value = plan.base_weight + mweight
        wit = None
        if with_witnesses:
            wit = reconstruct_witness(plan, matching)
            if G.total_weight(wit) != value:
                raise InvariantError("optimal witness weight differs from the cell value")
        prof.update(mask, value, wit)
    return prof
