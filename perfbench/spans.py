"""Layer spans for the traced run, recorded from outside the program.

`install` replaces the public functions of each module of the program,
and every name a module imported from them, with wrappers that record a
span (name, start, end, busy time, parent) and per-layer counts.  No
file of the program changes.  A span's busy time is its duration; for
the `iter_independent_sets` generator it is the summed time of its
resumptions, since the consumer's loop body runs between them.  A
layer's self time is its busy time minus that of its child spans.

Spans stay in memory and are written out when the run ends; beyond
`MAX_KEPT_SPANS` only their totals are kept, so that memory stays small
on long runs.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MAX_KEPT_SPANS = 50_000

# (module, function, span name).  A solver's span takes the module name,
# so its self time reads `solver_degree.self_s`.
TIMED = [
    ("solver_degree", "mwis", "solver_degree"),
    ("solver_biclique", "mwis_biclique", "solver_biclique"),
    ("bnb", "max_weight_set", "bnb.max_weight_set"),
    ("border", "brute_force_border", "border.brute_force_border"),
    ("border", "build_combination_plan", "border.build_combination_plan"),
    ("border", "combine_esd", "border.combine_esd"),
    ("border", "reconstruct_witness", "border.reconstruct_witness"),
    ("esd", "particles", "esd.particles"),
    ("esd", "validate_esd", "esd.validate_esd"),
    ("matching", "max_weight_matching", "matching.max_weight_matching"),
    ("decompose", "decompose", "decompose.decompose"),
    ("decompose", "validate_outcome", "decompose.validate_outcome"),
    ("patterns", "find_induced_sttt", "patterns.find_induced_sttt"),
    ("treedec", "build_weissauer", "treedec.build_weissauer"),
    ("fileio", "read_graph", "fileio.read_graph"),
]
GENERATOR = "bnb.iter_independent_sets"
SOLVER_MODULES = ("stripmwis.solver_degree", "stripmwis.solver_biclique")

# Per-layer metrics: (name, source, key).  Sources: "self" sums the self
# time of the spans named `key`, "count" a counter, "solver" the summed
# RecursionTrace figures; all three are divided by the number of
# operations.  "setup" is the self time of `key` spans during set-up,
# once per run.
LAYER_METRICS = [
    ("bnb.iter_independent_sets_s", "self", "bnb.iter_independent_sets"),
    ("bnb.independent_sets", "count", "bnb.independent_sets"),
    ("solver_degree.self_s", "self", "solver_degree"),
    ("solver_biclique.self_s", "self", "solver_biclique"),
    ("border.reconstruct_witness_s", "self", "border.reconstruct_witness"),
    ("border.build_combination_plan_s", "self", "border.build_combination_plan"),
    ("border.plans", "count", "border.build_combination_plan_calls"),
    ("border.combine_esd_s", "self", "border.combine_esd"),
    ("esd.particles_s", "self", "esd.particles"),
    ("esd.particles_calls", "count", "esd.particles_calls"),
    ("matching.max_weight_matching_s", "self", "matching.max_weight_matching"),
    ("matching.calls", "count", "matching.max_weight_matching_calls"),
    ("matching.nonempty_calls", "count", "matching.nonempty_calls"),
    ("matching.aux_nodes", "count", "matching.aux_nodes"),
    ("matching.aux_edges", "count", "matching.aux_edges"),
    ("decompose.decompose_s", "self", "decompose.decompose"),
    ("decompose.decompose_calls", "count", "decompose.decompose_calls"),
    ("decompose.validate_outcome_s", "self", "decompose.validate_outcome"),
    ("esd.validate_esd_s", "self", "esd.validate_esd"),
    ("patterns.find_induced_sttt_s", "self", "patterns.find_induced_sttt"),
    ("patterns.find_induced_sttt_calls", "count", "patterns.find_induced_sttt_calls"),
    ("bnb.max_weight_set_s", "self", "bnb.max_weight_set"),
    ("bnb.max_weight_set_calls", "count", "bnb.max_weight_set_calls"),
    ("border.brute_force_border_s", "self", "border.brute_force_border"),
    ("border.leaf_calls", "count", "border.brute_force_border_calls"),
    ("border.leaf_vertices", "count", "border.leaf_vertices"),
    ("treedec.build_weissauer_s", "self", "treedec.build_weissauer"),
    ("treedec.build_weissauer_calls", "count", "treedec.build_weissauer_calls"),
    ("graph.subgraph_s", "self", "graph.subgraph"),
    ("graph.subgraph_calls", "count", "graph.subgraph_calls"),
    ("border.profile_updates", "count", "border.profile_updates"),
    ("border.profile_improving_updates", "count", "border.profile_improving_updates"),
    ("solver.calls", "solver", "calls"),
    ("solver.leaves", "solver", "leaves"),
    ("solver.max_depth", "solver", "max_depth"),
    ("fileio.read_graph_s", "setup", "fileio.read_graph"),
]


def unit(source):
    return "s" if source in ("self", "setup") else "count"


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, busy, parent index]
        self.stack = []
        self.counts = {}
        self.self_s = {}         # span name -> summed self time
        self.kept = []           # folded spans, up to MAX_KEPT_SPANS
        self.dropped = 0

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def timed(self, name, fn, on_call=None):
        spans, stack = self.spans, self.stack
        calls = name + "_calls"

        def wrapper(*args, **kwargs):
            self.count(calls)
            if on_call is not None:
                on_call(*args, **kwargs)
            rec = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[3] = rec[2] - rec[1]
                stack.pop()

        return wrapper

    def timed_generator(self, name, fn, yielded=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            it = fn(*args, **kwargs)
            busy = 0.0
            n = 0
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += perf_counter() - t0
                        return
                    finally:
                        stack.pop()
                    busy += perf_counter() - t0
                    n += 1
                    yield item
            finally:
                rec[2] = perf_counter()
                rec[3] = busy
                if yielded is not None:
                    self.count(yielded, n)

        return wrapper

    def fold(self):
        """Add the self times of the spans recorded since the last fold
        to the totals, keep them for the trace file while there is room,
        and clear them."""
        spans = self.spans
        own = [rec[3] for rec in spans]
        for rec in spans:
            if rec[4] >= 0:
                own[rec[4]] -= rec[3]
        for rec, s in zip(spans, own):
            self.self_s[rec[0]] = self.self_s.get(rec[0], 0.0) + s
        base = len(self.kept)
        room = max(0, MAX_KEPT_SPANS - base)
        for rec in spans[:room]:
            parent = rec[4] + base if rec[4] >= 0 else -1
            self.kept.append((rec[0], rec[1], rec[2], rec[3], parent))
        self.dropped += max(0, len(spans) - room)
        spans.clear()

    def write(self, path):
        """One JSON array per line: name, start, end, busy, parent line
        (0-based, -1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.kept:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, ops, solver_stats, setup_self_s):
        """Per-layer metrics; `solver_stats` holds the summed recursion-trace
        counts of `ops` operations, `setup_self_s` the self times of the
        spans recorded during set-up."""
        tables = {"self": self.self_s, "count": self.counts, "solver": solver_stats}
        out = {}
        for name, source, key in LAYER_METRICS:
            if source == "setup":
                value = setup_self_s.get(key, 0.0)
            else:
                value = tables[source].get(key, 0) / ops
            out[name] = {"value": value, "unit": unit(source)}
        return out


def install(recorder):
    """Wrap the program's layers in place (the package must be imported)."""
    from stripmwis import bnb, border, graph

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "stripmwis" or name.startswith("stripmwis.")}

    def on_leaf(G, *args, **kwargs):
        recorder.count("border.leaf_vertices", G.n)

    def on_matching(aux):
        if aux.edges:
            recorder.count("matching.nonempty_calls")
        recorder.count("matching.aux_nodes", len(aux.nodes))
        recorder.count("matching.aux_edges", len(aux.edges))

    hooks = {"border.brute_force_border": on_leaf,
             "matching.max_weight_matching": on_matching}
    swap = {}
    for mod, fn, name in TIMED:
        orig = getattr(modules["stripmwis." + mod], fn)
        swap[id(orig)] = recorder.timed(name, orig, hooks.get(name))
    for name, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if id(val) in swap:
                setattr(mod, attr, swap[id(val)])

    # The fold loops of the two solvers count what the enumeration yields
    # to them; the other callers (the combination step) are timed only.
    orig = bnb.iter_independent_sets
    plain = recorder.timed_generator(GENERATOR, orig)
    counted = recorder.timed_generator(GENERATOR, orig, "bnb.independent_sets")
    for name, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, counted if name in SOLVER_MODULES else plain)

    graph.WeightedGraph.subgraph = recorder.timed("graph.subgraph",
                                                  graph.WeightedGraph.subgraph)
    update = border.BorderProfile.update

    def counted_update(prof, mask, weight, witness=None):
        recorder.count("border.profile_updates")
        cur = prof.table[mask]
        if cur is None or weight > cur:
            recorder.count("border.profile_improving_updates")
        return update(prof, mask, weight, witness)

    border.BorderProfile.update = counted_update
