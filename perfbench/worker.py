"""One workload in a fresh process: set up, then run whole rounds.

Reads a job (JSON) on standard input and writes one JSON object on
standard output.  `run.py` starts it with the program's `src` directory
on `PYTHONPATH`; this file touches the program only through its public
API: `read_graph`, `line_graph`, `mwis`, `mwis_biclique`,
`brute_force_border`, `combine_esd`, and the decomposition class with
its `particles`, which `combine_linegraph` needs to state its input.

Job keys: ``workload``, ``instances`` (see corpus.py), ``mode``
(``"setup"`` to time the set-up alone, or ``"run"``), ``seconds``,
``trace`` (bool) and ``trace_path``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from time import perf_counter


def main():
    job = json.load(sys.stdin)
    workload, instances = job["workload"], job["instances"]
    recorder = None

    t0 = perf_counter()
    import stripmwis as sm
    if job.get("trace"):
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    graphs = [_load(sm, inst) for inst in instances]
    setup_s = perf_counter() - t0
    if job["mode"] == "setup":
        json.dump({"setup_s": setup_s}, sys.stdout)
        return

    op = _operations(sm, workload)
    setup_self_s = {}
    if recorder is not None:
        recorder.fold()
        setup_self_s, recorder.self_s = recorder.self_s, {}
        recorder.counts.clear()
        op = recorder.timed("op", op)
    prepared = [_prepare(sm, workload, inst, g) for inst, g in zip(instances, graphs)]
    results = []
    stats = {"calls": 0, "leaves": 0, "max_depth": 0}
    # Whole rounds only, so that every run makes the same operations in
    # the same proportions; the run stops at the round boundary nearest
    # to `seconds`.
    start = perf_counter()
    rounds = 0
    while rounds == 0 or (perf_counter() - start) * (1 + 0.5 / rounds) < job["seconds"]:
        for i, args in enumerate(prepared):
            gc.collect()
            t = perf_counter()
            try:
                out = op(*args)
            except sm.ToolkitError as exc:
                out = {"error": f"{type(exc).__name__}: {exc}"}
            dt = perf_counter() - t
            trace = out.pop("trace", None)
            if trace is not None:
                stats["calls"] += trace.call_count
                stats["leaves"] += trace.leaf_count
                stats["max_depth"] += trace.max_depth
            if "error" in out:
                results.append({"i": i, "dt": dt, "error": out["error"]})
            else:
                results.append({"i": i, "dt": dt, "out": out})
            if recorder is not None:
                recorder.fold()
        rounds += 1

    report = {"setup_s": setup_s, "rounds": rounds, "ops": results,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        report["layers"] = recorder.metrics(len(results), stats, setup_self_s)
        report["self_s"] = recorder.self_s
        report["dropped_spans"] = recorder.dropped
        recorder.write(job["trace_path"])
    json.dump(report, sys.stdout)


def _load(sm, inst):
    g = sm.read_graph(inst["text"])
    if inst["kind"] == "graph":
        return g
    return sm.line_graph(g, {frozenset(e): w for e, w in zip(inst["edges"], inst["weights"])})


def _prepare(sm, workload, inst, G):
    """Arguments of one operation on `inst`; for `combine_linegraph` the
    canonical strip decomposition of the line graph G = L(R): pattern R,
    each vertex of G alone in its edge class and in both end-sets."""
    if workload != "combine_linegraph":
        return (G,)
    label = {frozenset(lab): lab for lab in G.labels}
    edges = [tuple(e) for e in inst["edges"]]
    D = sm.ExtendedStripDecomposition(
        range(1, inst["n"] + 1), edges, {},
        {e: ({label[frozenset(e)]},) * 3 for e in edges})
    T = frozenset(label[frozenset(edges[i])] for i in inst["terminals"])
    index = {label[frozenset(e)]: i for i, e in enumerate(edges)}
    return G, D, T, index


def _operations(sm, workload):
    if workload == "degree_linegraph":
        cfg = sm.DegreeSolverConfig(t=2, ell_scale=0.003, leaf_cap_override=12)
        return lambda G: _solved(sm.mwis(G, cfg))
    if workload == "degree_cycle":
        cfg = sm.DegreeSolverConfig(t=2, ell_scale=0.003, with_witnesses=True)
        return lambda G: _solved(sm.mwis(G, cfg))
    if workload == "biclique_caterpillar":
        cfg = sm.BicliqueSolverConfig(t=2, k=3, leaf_cap_override=14, with_witnesses=True)
        return lambda G: _solved(sm.mwis_biclique(G, cfg))
    if workload == "combine_linegraph":
        def combine(G, D, T, index):
            profiles = {p: sm.brute_force_border(G.subgraph(p.members), T & p.members)
                        for p in sm.particles(D)}
            prof = sm.combine_esd(G, T, D, profiles)
            return {"terminals": [index[t] for t in prof.terminals], "table": prof.table}
        return combine
    raise ValueError(f"unknown workload {workload!r}")


def _solved(result):
    if not isinstance(result, tuple):
        # An induced subdivided claw on a claw-free input: a wrong answer.
        return {"value": None, "witness": None, "trace": result.trace}
    value, witness, trace = result
    return {"value": value, "witness": None if witness is None else sorted(witness),
            "trace": trace}


if __name__ == "__main__":
    main()
