"""Recursive border solver for bounded-degree inputs, and the recursion
skeleton and interface fold it shares with the biclique solver.

A run first searches its input for an induced S_{t,t,t} and returns the
claw if there is one.  Every graph the recursion decomposes is an induced
subgraph of the input, so that one search covers them all.

Each call either brute-forces a small induced subgraph or removes the
closed neighborhood of a short-path family X, recurses on the particles
of the balanced strip decomposition of the remainder
(`Recursion.strip_parts`, which the biclique solver shares), and folds
the particle profiles and the removed part together.  The particles of an
edgeless strip pattern, which is all the reference decomposer emits, are
its pairwise non-adjacent vertex classes, so their profiles are fold
parts as they are; a pattern with edges is combined by the matching step
first.  The fold enumerates the independent subsets of T and of the
positive-weight vertices of N[X] only: a terminal of T* outside T belongs
to one part, and no other part's terminal touches it, so that part
answers for it by one lookup in a subset-max table per subset.

The alternation between balancing on all vertices and balancing on the
terminal set keeps the terminal count below 4 * Delta^2 * ell at every
call; the scale knob on ell exists so that desk-size instances exercise
the recursion instead of collapsing into one brute-force leaf.
"""

from __future__ import annotations

import math

from .border import (MAX_LEAF_TERMINALS, MAX_LEAF_VERTICES, BorderProfile,
                     brute_force_border, combine_esd)
from .bnb import iter_independent_sets
from .decompose import decompose, validate_outcome
from .errors import InputError, InvariantError
from .esd import check_pattern_degree, occurrence_bound, particles
from .graph import WeightedGraph
from .patterns import SubdividedClawWitness, find_induced_sttt, witness_violations
from .trace import RecursionTrace, TraceRecord


def compute_ell(n: int, t: int, ell_scale=1) -> int:
    """ceil(scale * ceil(11*log2(n) + 6) * (t + 2)), at least 1."""
    if n < 1:
        n = 1
    base = math.ceil(11 * math.log2(n) + 6) * (t + 2)
    try:
        num, den = ell_scale.as_integer_ratio()
    except (ValueError, OverflowError):
        raise InputError(f"ell_scale must be finite, got {ell_scale!r}") from None
    if num <= 0:
        raise InputError("ell_scale must be positive")
    return max(1, -(-num * base // den))


class DegreeSolverConfig:
    def __init__(self, t: int = 2, ell_scale=1, leaf_cap_override: int | None = None,
                 with_witnesses: bool = False):
        self.t = t
        self.ell_scale = ell_scale
        self.leaf_cap_override = leaf_cap_override
        self.with_witnesses = with_witnesses


class SolveResult:
    def __init__(self, profile: BorderProfile | None = None,
                 witness: SubdividedClawWitness | None = None,
                 trace: RecursionTrace | None = None):
        self.profile = profile
        self.witness = witness
        self.trace = trace

    @property
    def found_witness(self) -> bool:
        return self.witness is not None


def run(solver, G: WeightedGraph, T) -> SolveResult:
    """Solve (G, T) from the root, or return an induced S_{t,t,t} of G.

    A root leaf needs no decomposition, so only a recursive run searches
    for the claw; its graphs are all induced subgraphs of G, so the one
    search of G stands for all of them."""
    T = frozenset(T)
    t = solver.cfg.t
    if not solver.is_leaf(G, T):
        witness = find_induced_sttt(G, t)
        if witness is not None:
            report = witness_violations(G, witness)
            if witness.leg_lengths() != (t, t, t):
                report.append(f"witness legs {witness.leg_lengths()} != ({t}, {t}, {t})")
            if report:
                raise InvariantError("claw witness failed re-verification: "
                                     + "; ".join(report))
            return SolveResult(witness=witness, trace=solver.trace)
    return SolveResult(profile=solver.solve(G, T, depth=0), trace=solver.trace)


def unwrap(G: WeightedGraph, result: SolveResult):
    """(value, witness, trace) of a root solve, or the result itself when
    it carries a subdivided claw."""
    if result.found_witness:
        return result
    value = result.profile.table[0]
    witness = result.profile.witnesses[0] if result.profile.witnesses else None
    if witness is not None:
        if not G.is_independent(witness) or G.total_weight(witness) != value:
            raise InvariantError("solver witness failed re-verification")
    return value, witness, result.trace


def solve_degree(G: WeightedGraph, T, cfg: DegreeSolverConfig | None = None) -> SolveResult:
    return run(_DegreeSolver(G, cfg or DegreeSolverConfig()), G, T)


def mwis(G: WeightedGraph, cfg: DegreeSolverConfig | None = None):
    """Maximum independent-set weight of G (plus a verified witness when
    the config asks for witnesses); a witness result means an induced
    subdivided claw was found instead."""
    return unwrap(G, solve_degree(G, frozenset(), cfg))


class Recursion:
    """The recursion both solvers share: caps, brute-force leaves,
    checked decompositions and cell-witness re-verification around the
    solver's own `split` step."""

    def __init__(self, G: WeightedGraph, cfg, terminal_cap: int):
        if cfg.t < 1:
            raise InputError("t must be a positive integer")
        self.cfg = cfg
        self.terminal_cap = terminal_cap
        # The theoretical leaf cap equals the terminal cap; the leaves run
        # on the brute-force border solver, so they never exceed its limit.
        leaf_cap = terminal_cap if cfg.leaf_cap_override is None else cfg.leaf_cap_override
        if leaf_cap < 1:
            # not even a single vertex would be a leaf, so no recursion ends
            raise InputError(f"leaf cap must be at least 1, got {leaf_cap}")
        self.leaf_cap = min(leaf_cap, MAX_LEAF_VERTICES)
        self.depth_cap = max(1, 2 * math.ceil(math.log2(max(G.n, 2))))
        self.trace = RecursionTrace()

    def solve(self, Gp: WeightedGraph, T: frozenset, depth: int) -> BorderProfile:
        if len(T) > self.terminal_cap:
            raise InvariantError(
                f"terminal invariant broken: |T|={len(T)} > {self.terminal_cap}")
        if depth > self.depth_cap:
            raise InvariantError(f"recursion depth {depth} exceeds {self.depth_cap}")
        if self.is_leaf(Gp, T):
            self.trace.add(TraceRecord(depth, Gp.n, len(T), "-", 0, 0, True))
            return brute_force_border(Gp, T, with_witnesses=self.cfg.with_witnesses)
        result = self.split(Gp, T, depth)
        if self.cfg.with_witnesses:
            tset = set(result.terminals)
            for mask, val in result.cells():
                wit = result.witnesses[mask]
                if val is not None and (wit is None or not Gp.is_independent(wit)
                                        or Gp.total_weight(wit) != val
                                        or wit & tset != result.labels_of(mask)):
                    raise InvariantError("cell witness failed re-verification")
        return result

    def is_leaf(self, Gp: WeightedGraph, T: frozenset) -> bool:
        return Gp.n <= self.leaf_cap and len(T) <= MAX_LEAF_TERMINALS

    def split(self, Gp: WeightedGraph, T: frozenset, depth: int) -> BorderProfile:
        raise NotImplementedError

    def strip_parts(self, H: WeightedGraph, TH: frozenset, D, depth: int) -> list:
        """Recurse on every particle of the strip decomposition D of H and
        return fold parts that stand for the profile of (H, TH).

        The particles of an edgeless pattern are its vertex classes: they
        partition V(H) and no edge joins two of them, so every auxiliary
        graph of the combination step is empty and each cell is the sum
        of the particle cells.  The fold forms that sum itself, so the
        particle profiles are its parts.  A pattern with edges is combined
        first."""
        profiles = {p: self.solve(H.subgraph(p.members), TH & p.members, depth + 1)
                    for p in particles(D)}
        if not D.pattern_edges:
            return list(profiles.values())
        return [combine_esd(H, TH, D, profiles, with_witnesses=self.cfg.with_witnesses)]

    def decompose(self, G: WeightedGraph, U):
        outcome = decompose(G, U)
        report = validate_outcome(G, U, self.cfg.t, outcome)
        if report:
            raise InvariantError("decomposition failed validation: " + "; ".join(report))
        return outcome

    def check_structure(self, D, clique_bound: int):
        # A rigid decomposition of a K_q-free graph has pattern degree < q,
        # and no vertex may appear in more than max(4, 2d+1) particles.
        if not check_pattern_degree(D, clique_bound):
            raise InvariantError(
                f"pattern degree {D.pattern_max_degree()} exceeds {clique_bound - 1}")
        cap = max(4, 2 * D.pattern_max_degree() + 1)
        occ = occurrence_bound(D)
        if occ > cap:
            raise InvariantError(f"a vertex appears in {occ} particles, cap {cap}")


def fold(result: BorderProfile, Gp: WeightedGraph, universe, weight, keep, parts,
         base=0, base_cell=0, base_witness=frozenset()):
    """Maximize, over the independent subsets I of `universe`,
    base + sum of weight[v] over I + sum over parts of prof(I cap terminals(prof))
    into the cell (I cap T) | base_cell of `result`.

    `weight` maps labels to their weight in the sum (missing labels count
    zero).  A cell's witness is base_witness, I cap keep, and the parts'
    witnesses.  Each part's graph must meet `universe` only in the part's
    terminals; its witnesses meet those exactly in their cell, so they add
    nothing of the universe outside I.

    A private coordinate is a terminal of one part alone, of weight zero,
    no terminal of `result` and with no neighbor among the other parts'
    terminals: whether I takes it matters to its part only.  The other
    terminals and vertices of positive weight are enumerated; the rest
    never help.  A subset-max transform over its private bits makes each
    part's table answer "best cell within these private bits", so an
    independent enumerated subset S costs one lookup per part, with the
    private coordinates outside N(S) allowed."""
    tset = set(result.terminals)
    # Each part's cell sits in a packed mask at the part's offset, above
    # the result cell; packed_of[lab] holds lab's bits in all of them.
    packed_of = {lab: result.mask_of([lab]) for lab in tset}
    owners, spans = {}, []
    off = len(result.terminals)
    for p, prof in enumerate(parts):
        for lab in prof.terminals:
            owners.setdefault(lab, set()).add(p)
            packed_of[lab] = packed_of.get(lab, 0) | prof.mask_of([lab]) << off
        spans.append((prof, off, (1 << len(prof.terminals)) - 1))
        off += len(prof.terminals)

    enumerated, all_private = [], 0
    for v in sorted(Gp.ids_of(universe)):
        lab = Gp.label_of(v)
        own = owners.get(lab, ())
        if len(own) == 1 and lab not in tset and not weight.get(lab, 0) \
                and all(owners.get(Gp.label_of(u), own) <= own for u in Gp.adj[v]):
            all_private |= packed_of[lab]
        elif own or lab in tset or weight.get(lab, 0) > 0:
            enumerated.append(v)
    labels = [Gp.label_of(v) for v in enumerated]
    pos = {v: i for i, v in enumerate(enumerated)}
    # Per enumerated vertex: its conflicts, its weight, its packed bits
    # and the private bits it blocks.
    conflicts, wts, bits, blocks = [], [], [], []
    for v, lab in zip(enumerated, labels):
        c = b = 0
        for u in Gp.adj[v]:
            if u in pos:
                c |= 1 << pos[u]
            else:
                b |= packed_of.get(Gp.label_of(u), 0)
        conflicts.append(c)
        blocks.append(b & all_private)
        wts.append(weight.get(lab, 0))
        bits.append(packed_of.get(lab, 0))

    tables = [(*_subset_max(prof.table, all_private >> off & pmask), prof.witnesses,
               off, pmask) for prof, off, pmask in spans]
    cell_mask = (1 << len(result.terminals)) - 1
    keep_mask = sum(1 << i for i, lab in enumerate(labels) if lab in keep)
    with_witnesses = result.witnesses is not None

    for mask in iter_independent_sets(conflicts):
        value = base
        packed = base_cell
        blocked = 0
        m = mask
        while m:
            b = m & -m
            i = b.bit_length() - 1
            value += wts[i]
            packed |= bits[i]
            blocked |= blocks[i]
            m ^= b
        packed |= all_private & ~blocked
        for best, _, _, off, pmask in tables:
            sub = best[(packed >> off) & pmask]
            if sub is None:
                raise InvariantError("independent trace hit a -inf part cell")
            value += sub
        cell = packed & cell_mask
        wit = None
        cur = result.table[cell]
        # Ties keep the first writer, so only an improvement needs a witness.
        if with_witnesses and (cur is None or value > cur):
            wit = set(base_witness)
            wit.update(_labels_of(mask & keep_mask, labels))
            for _, arg, witnesses, off, pmask in tables:
                wit |= witnesses[arg[(packed >> off) & pmask]]
            wit = frozenset(wit)
        result.update(cell, value, wit)


def _subset_max(table, bits: int):
    """The table whose cell c holds the best cell of `table` that agrees
    with c outside `bits` and lies within c on them (None is -infinity),
    and the index of that cell; ties keep the smaller cell."""
    if not bits:
        return table, range(len(table))
    best = list(table)
    arg = list(range(len(table)))
    while bits:
        b = bits & -bits
        bits ^= b
        for start in range(b, len(best), 2 * b):
            for c in range(start, start + b):
                lo = best[c ^ b]
                if lo is not None and (best[c] is None or lo >= best[c]):
                    best[c] = lo
                    arg[c] = arg[c ^ b]
    return best, arg


def _labels_of(mask: int, labels):
    return (labels[i] for i in range(mask.bit_length()) if mask >> i & 1)


class _DegreeSolver(Recursion):
    def __init__(self, G: WeightedGraph, cfg: DegreeSolverConfig):
        self.delta = max(1, G.max_degree())
        ell = compute_ell(G.n, cfg.t, cfg.ell_scale)
        self.u_rule_cap = 3 * self.delta ** 2 * ell
        super().__init__(G, cfg, 4 * self.delta ** 2 * ell)

    def split(self, Gp: WeightedGraph, T: frozenset, depth: int) -> BorderProfile:
        if len(T) <= self.u_rule_cap:
            U, ukind = Gp.label_set, "V"
        else:
            U, ukind = T, "T"
        outcome = self.decompose(Gp, U)
        X = outcome.removed_set()
        closed = Gp.closed_neighborhood(X)
        frontier = Gp.open_neighborhood(closed)
        rest_labels = Gp.label_set - closed
        Gstar = Gp.subgraph(rest_labels)
        Tstar = (T & rest_labels) | frontier
        # barrier: the removed closed neighborhood may only touch terminals
        if not frontier <= Tstar or frontier & closed:
            raise InvariantError("removed neighborhood touches a nonterminal remainder vertex")

        D = outcome.esd
        self.check_structure(D, Gstar.max_degree() + 2)
        parts = particles(D)
        fanout = sum(len(p.members) for p in parts)
        cap = (2 * self.delta + 3) * Gp.n
        if fanout > cap:
            raise InvariantError(f"particle fan-out {fanout} exceeds {cap}")

        self.trace.add(TraceRecord(depth, Gp.n, len(T), ukind, len(X), len(parts), False))
        # Fold the removed closed neighborhood back in: maximize
        # w(I \ T*) + f*(I cap T*) into the cell I cap T.
        result = BorderProfile.of_terminals(Gp, T, self.cfg.with_witnesses)
        fold(result, Gp, Tstar | closed, {v: Gp.weight_of(v) for v in closed}, closed,
             self.strip_parts(Gstar, Tstar, D, depth))
        return result
