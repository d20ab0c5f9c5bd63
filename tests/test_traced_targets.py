import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import stripmwis

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# One combination over a line graph's canonical decomposition and one
# recursive solve, with every layer wrapped as in a traced benchmark run.
TRACED_RUN = f"""
import importlib.util, json, random
import stripmwis
spec = importlib.util.spec_from_file_location("spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder()
spans.install(recorder)

from helpers import line_graph_esd, weighted_cycle
from stripmwis import (DegreeSolverConfig, WeightedGraph, brute_force_border,
                       combine_esd, mwis, particles)
rng = random.Random(5)
base = WeightedGraph(range(6), [1] * 6,
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
L, D = line_graph_esd(base, {{frozenset(base.label_of(i) for i in e): rng.randint(1, 9)
                             for e in base.edges_ids()}})
T = frozenset(L.labels[:3])
profiles = {{p: brute_force_border(L.subgraph(p.members), T & p.members, True)
            for p in particles(D)}}
combine_esd(L, T, D, profiles, with_witnesses=True)
_, _, trace = mwis(weighted_cycle(rng, 12), DegreeSolverConfig(t=2, leaf_cap_override=4))
assert trace.call_count > 1
print(json.dumps(recorder.counts))
"""


def _resolve(dotted):
    """The object named `module.attr[.attr]` inside the stripmwis package."""
    mod, *attrs = dotted.split(".")
    obj = importlib.import_module("stripmwis." + mod)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_run_targets_resolve():
    # the traced benchmark run wraps these program names from outside
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [f"{mod}.{fn}" for mod, fn, _ in spans.TIMED]
    names += [spans.GENERATOR, "graph.WeightedGraph.subgraph", "border.BorderProfile.update"]
    for dotted in names:
        assert callable(_resolve(dotted)), dotted
    for module in spans.SOLVER_MODULES:
        importlib.import_module(module)


def test_traced_run_accepts_every_call():
    # the wrappers' hooks take the arguments the program passes
    here = Path(__file__).resolve().parent
    src = str(Path(stripmwis.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(here)])))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["matching.max_weight_matching_calls"] > 0
    assert counts["solver_degree_calls"] == 1
