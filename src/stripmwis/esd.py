"""Extended strip decompositions.

A decomposition of a graph G is a pattern graph H together with a vertex
set eta(x) per pattern vertex, an edge set eta(xy) with two end-subsets
eta(xy,x), eta(xy,y) per pattern edge, and a triangle set eta(xyz) per
pattern triangle.  The eta sets partition V(G) (property P1), end-sets
around a common pattern vertex are complete to each other (P2), and
every G-edge lies inside one class or in one of three sanctioned cross
patterns (P3).  All eta sets hold vertex labels of the host graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import ContractViolation, InputError, ParseError
from .fileio import fields, records
from .graph import WeightedGraph

VERTEX = "vertex"
EDGE_INTERIOR = "edge_interior"
HALF_EDGE = "half_edge"
FULL_EDGE = "full_edge"
TRIANGLE = "triangle"


class Particle(NamedTuple):
    """One of the five induced-subgraph pieces the recursion works on."""

    kind: str
    anchor: tuple
    members: frozenset


class ExtendedStripDecomposition:
    def __init__(self, pattern_vertices, pattern_edges, vertex_sets,
                 edge_sets, triangle_sets=None):
        """`vertex_sets` maps pattern vertices to eta(x), and `edge_sets`
        maps sorted pattern edges (x, y) to a triple (eta(xy), eta(xy,x),
        eta(xy,y)); a key outside the pattern is an InputError, and missing
        sets default to the empty set."""
        self.pattern_vertices = tuple(sorted(pattern_vertices))
        pv = set(self.pattern_vertices)
        es = set()
        for x, y in pattern_edges:
            if x == y or x not in pv or y not in pv:
                raise InputError(f"bad pattern edge ({x}, {y})")
            es.add((min(x, y), max(x, y)))
        self.pattern_edges = tuple(sorted(es))
        self.vertex_sets = {x: frozenset(vertex_sets.get(x, ())) for x in self.pattern_vertices}
        self.edge_sets = {}
        for e in self.pattern_edges:
            full, end_a, end_b = edge_sets.get(e, ((), (), ()))
            self.edge_sets[e] = (frozenset(full), frozenset(end_a), frozenset(end_b))
        # The decomposition is never changed after construction, so the
        # pattern's adjacency, its triangles and the particles are computed
        # once here.
        nbrs = {x: [] for x in self.pattern_vertices}
        for x, y in self.pattern_edges:
            nbrs[x].append(y)
            nbrs[y].append(x)
        self._neighbors = {x: tuple(sorted(ys)) for x, ys in nbrs.items()}
        self._triangles = tuple((x, y, z) for x, y in self.pattern_edges
                                for z in self._neighbors[x] if z > y and (y, z) in es)
        self.triangle_sets = {tuple(sorted(k)): frozenset(s)
                              for k, s in (triangle_sets or {}).items()}
        stray = ((vertex_sets.keys() - pv) | (edge_sets.keys() - es)
                 | (self.triangle_sets.keys() - set(self._triangles)))
        if stray:
            raise InputError(f"{min(stray, key=repr)} is not in the pattern")
        parts = [self.particle_vertex(x) for x in self.pattern_vertices]
        for e in self.pattern_edges:
            parts += (self.particle_edge_interior(e), self.particle_half_edge(e, e[0]),
                      self.particle_half_edge(e, e[1]), self.particle_full_edge(e))
        parts += (self.particle_triangle(tr) for tr in self._triangles)
        self._particles = tuple(parts)

    # -- pattern queries ------------------------------------------------------

    def pattern_neighbors(self, x) -> tuple:
        return self._neighbors[x]

    def pattern_degree(self, x) -> int:
        return len(self.pattern_neighbors(x))

    def pattern_max_degree(self) -> int:
        return max((self.pattern_degree(x) for x in self.pattern_vertices), default=0)

    def triangles(self) -> tuple:
        """Sorted triangle triples of the pattern."""
        return self._triangles

    # -- eta accessors ---------------------------------------------------------

    def eta_end(self, x, y, end) -> frozenset:
        e = (min(x, y), max(x, y))
        full, end_a, end_b = self.edge_sets[e]
        return end_a if end == e[0] else end_b

    def eta_triangle(self, xyz) -> frozenset:
        return self.triangle_sets.get(tuple(sorted(xyz)), frozenset())

    def all_classes(self):
        """(kind, anchor, members) for every eta class, in a fixed order."""
        for x in self.pattern_vertices:
            yield ("v", (x,), self.vertex_sets[x])
        for e in self.pattern_edges:
            yield ("e", e, self.edge_sets[e][0])
        for tr in self.triangles():
            yield ("t", tr, self.eta_triangle(tr))

    def particle_vertex(self, x) -> Particle:
        return Particle(VERTEX, (x,), self.vertex_sets[x])

    def particle_edge_interior(self, e) -> Particle:
        full, ea, eb = self.edge_sets[e]
        return Particle(EDGE_INTERIOR, e, full - ea - eb)

    def particle_half_edge(self, e, end) -> Particle:
        full, ea, eb = self.edge_sets[e]
        far = eb if end == e[0] else ea
        return Particle(HALF_EDGE, (e, end), self.vertex_sets[end] | (full - far))

    def particle_full_edge(self, e) -> Particle:
        x, y = e
        members = set(self.vertex_sets[x] | self.vertex_sets[y] | self.edge_sets[e][0])
        for tr in self.triangles():
            if x in tr and y in tr:
                members |= self.eta_triangle(tr)
        return Particle(FULL_EDGE, e, frozenset(members))

    def particle_triangle(self, tr) -> Particle:
        return Particle(TRIANGLE, tr, self.eta_triangle(tr))


def particles(D: ExtendedStripDecomposition) -> tuple:
    """All particles of all five kinds, empty ones included: the vertex
    particles in pattern-vertex order, then per pattern edge its interior,
    two half-edge and full-edge particles, then the triangle particles."""
    return D._particles


def _class_name(kind, anchor):
    if kind == "v":
        return f"eta({anchor[0]})"
    if kind == "e":
        return f"eta({anchor[0]}{anchor[1]})"
    return f"eta({anchor[0]}{anchor[1]}{anchor[2]})"


def validate_esd(G: WeightedGraph, D: ExtendedStripDecomposition,
                 require_rigid: bool = False) -> list:
    """Violation report; empty iff D is a valid (and, if asked, rigid) ESD of G."""
    report = []
    owner = {}

    for e, (full, ea, eb) in D.edge_sets.items():
        if not ea <= full or not eb <= full:
            report.append(f"end subsets of eta({e[0]}{e[1]}) are not subsets of the edge set")

    # P1: the eta classes partition V(G).
    for kind, anchor, mem in D.all_classes():
        for v in mem:
            if not G.has_label(v):
                raise InputError(f"eta set references unknown vertex {v!r}")
            if v in owner:
                report.append(
                    f"P1: vertex {v!r} in both {_class_name(*owner[v])} and {_class_name(kind, anchor)}")
            else:
                owner[v] = (kind, anchor)
    for v in G.labels:
        if v not in owner:
            report.append(f"P1: vertex {v!r} not covered by any eta set")

    # P2: end-sets around a common pattern vertex are complete to each other.
    for x in D.pattern_vertices:
        nbrs = D.pattern_neighbors(x)
        for y, z in combinations(nbrs, 2):
            for u in D.eta_end(x, y, x):
                for v in D.eta_end(x, z, x):
                    if not G.has_edge_labels(u, v):
                        report.append(
                            f"P2: {u!r} in eta({x}{y},{x}) not adjacent to {v!r} in eta({x}{z},{x})")

    # P3: every G-edge is internal to a class or matches a sanctioned pattern.
    if not report:
        tri_of_edge = {}
        for tr in D.triangles():
            x, y, z = tr
            for e in ((x, y), (x, z), (y, z)):
                tri_of_edge.setdefault(e, []).append(tr)
        for u, v in G.edges_ids():
            lu, lv = G.label_of(u), G.label_of(v)
            if _edge_ok(D, owner, tri_of_edge, lu, lv):
                continue
            report.append(f"P3: edge {lu!r}-{lv!r} not sanctioned "
                          f"({_class_name(*owner[lu])} vs {_class_name(*owner[lv])})")

    if require_rigid:
        for e in D.pattern_edges:
            full, ea, eb = D.edge_sets[e]
            for name, s in ((f"eta({e[0]}{e[1]})", full),
                            (f"eta({e[0]}{e[1]},{e[0]})", ea),
                            (f"eta({e[0]}{e[1]},{e[1]})", eb)):
                if not s:
                    report.append(f"rigidity: {name} is empty")
        for x in D.pattern_vertices:
            if D.pattern_degree(x) == 0 and not D.vertex_sets[x]:
                report.append(f"rigidity: isolated pattern vertex {x} has empty eta({x})")
    return report


def _edge_ok(D, owner, tri_of_edge, lu, lv) -> bool:
    ku, au = owner[lu]
    kv, av = owner[lv]
    if (ku, au) == (kv, av):
        return True
    for (k1, a1, l1), (k2, a2, l2) in (((ku, au, lu), (kv, av, lv)),
                                       ((kv, av, lv), (ku, au, lu))):
        if k1 == "e" and k2 == "e":
            shared = set(a1) & set(a2)
            if shared:
                x = shared.pop()
                if l1 in D.eta_end(*a1, x) and l2 in D.eta_end(*a2, x):
                    return True
        elif k1 == "e" and k2 == "v":
            x = a2[0]
            if x in a1 and l1 in D.eta_end(*a1, x):
                return True
        elif k1 == "t" and k2 == "e":
            if a1 in tri_of_edge.get(a2, ()) or set(a2) <= set(a1):
                x, y = a2
                if l2 in D.eta_end(x, y, x) and l2 in D.eta_end(x, y, y):
                    return True
    return False


def restrict_esd(D: ExtendedStripDecomposition, G_sub: WeightedGraph) -> ExtendedStripDecomposition:
    """Restrict every eta set to V(G_sub); the pattern is unchanged.

    The restriction is re-validated against G_sub (rigidity not required);
    a violation raises ContractViolation naming the broken property.
    """
    keep = G_sub.label_set
    out = ExtendedStripDecomposition(
        D.pattern_vertices,
        D.pattern_edges,
        {x: s & keep for x, s in D.vertex_sets.items()},
        {e: (f & keep, a & keep, b & keep) for e, (f, a, b) in D.edge_sets.items()},
        {tr: s & keep for tr, s in D.triangle_sets.items()},
    )
    report = validate_esd(G_sub, out, require_rigid=False)
    if report:
        raise ContractViolation("restriction is not a valid decomposition: " + "; ".join(report))
    return out


def check_pattern_degree(D: ExtendedStripDecomposition, t: int) -> bool:
    """True iff the pattern's maximum degree is at most t - 1 (the bound a
    rigid decomposition of a K_t-free graph must satisfy)."""
    return D.pattern_max_degree() <= t - 1


def occurrence_bound(D: ExtendedStripDecomposition) -> int:
    """Maximum, over host vertices, of the number of particles containing it."""
    counts = {}
    for p in particles(D):
        for v in p.members:
            counts[v] = counts.get(v, 0) + 1
    return max(counts.values(), default=0)


def components_esd(component_label_sets) -> ExtendedStripDecomposition:
    """One isolated pattern vertex per connected component; rigid whenever
    every component is nonempty, and the empty pattern for the empty graph."""
    comps = list(component_label_sets)
    return ExtendedStripDecomposition(
        range(len(comps)), (), {i: comps[i] for i in range(len(comps))}, {})


# -- interchange format -------------------------------------------------------
# `check --esd` and the decomposer outcome format read it; the program
# writes no decomposition, and `tests/helpers.py` holds the writer.

def esd_from_text(text: str) -> ExtendedStripDecomposition:
    """Parse the interchange format; eta entries hold integer vertex labels."""
    return esd_from_records(records(text))


_ETA_FORMS = {"v": "eta v <x> : ...", "e": "eta e <x> <y> : ... | ... | ...",
              "t": "eta t <x> <y> <z> : ..."}


def esd_from_records(rows) -> ExtendedStripDecomposition:
    """Parse the interchange format from `fileio.records` rows.

    The header 'h <nH> <mH>' comes first: the pattern vertices are
    0..nH-1, and mH lines 'he <x> <y>' list the pattern edges.  The lines
    'eta v <x> : <labels>', 'eta e <x> <y> : <eta(xy)> | <eta(xy,x)> |
    <eta(xy,y)>' and 'eta t <x> <y> <z> : <labels>' give the classes; a
    class without a line is empty.  A pattern edge or class has at most
    one line, and an eta line follows the he lines of its pattern edges."""
    nh = mh = None
    edges = set()
    sets = {"v": {}, "e": {}, "t": {}}
    for lineno, tokens in rows:
        kind = tokens[0]
        if kind == "h":
            if nh is not None:
                raise ParseError("duplicate pattern header", lineno)
            nh, mh = fields(lineno, tokens, "h <nH> <mH>")
            if nh < 0 or mh < 0:
                raise ParseError("negative counts in header", lineno)
        elif nh is None:
            raise ParseError("line before the 'h' header", lineno)
        elif kind == "he":
            x, y = fields(lineno, tokens, "he <x> <y>")
            if (min(x, y), max(x, y)) in edges:
                raise ParseError(f"duplicate pattern edge {x} {y}", lineno)
            edges.add((min(x, y), max(x, y)))
        elif kind == "eta" and tokens[1:2] and tokens[1] in _ETA_FORMS:
            sub = tokens[1]
            *anchor, members = fields(lineno, tokens, _ETA_FORMS[sub])
            if sub == "e":
                x, y, full, end_x = anchor
                members = (full, end_x, members) if x < y else (full, members, end_x)
                anchor = [x, y]
            key = anchor[0] if sub == "v" else tuple(sorted(anchor))
            known = 0 <= key < nh if sub == "v" else edges.issuperset(combinations(key, 2))
            if not known:
                raise ParseError(f"eta {sub} line for {key}, which is not in the pattern", lineno)
            if key in sets[sub]:
                raise ParseError(f"duplicate eta {sub} line for {key}", lineno)
            sets[sub][key] = members
        else:
            raise ParseError(f"unknown line kind {' '.join(tokens[:2])!r}", lineno)
    if nh is None:
        raise ParseError("missing 'h' header")
    if len(edges) != mh:
        raise ParseError(f"expected {mh} pattern edges, found {len(edges)}")
    try:
        return ExtendedStripDecomposition(range(nh), edges, sets["v"], sets["e"], sets["t"])
    except InputError as exc:
        raise ParseError(str(exc)) from None
